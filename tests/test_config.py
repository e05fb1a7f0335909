import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from topicpages import load_config
from topicpages.config import TYPES, PipelineConfig, parse_range
from topicpages.errors import ConfigError


def _config_file(tmp_path, text):
    path = tmp_path / "run.conf"
    path.write_text(text, "utf-8")
    return path


class TestParseConfigText:
    """Config-file text, read through load_config."""

    def test_scalars(self, tmp_path):
        text = (
            "# a comment\n"
            "\n"
            "seed = 7\n"
            "timeout = 2.5\n"
            "live = true\n"
            "respect_robots = false\n"
            'out_dir = "runs/out"\n'
            "user_agent = plainbot\n"
        )
        config = load_config(_config_file(tmp_path, text), env={})
        values = {key: getattr(config, key) for key in
                  ("seed", "timeout", "live", "respect_robots", "out_dir", "user_agent")}
        assert values == {
            "seed": 7,
            "timeout": 2.5,
            "live": True,
            "respect_robots": False,
            "out_dir": "runs/out",
            "user_agent": "plainbot",
        }
        assert [type(v) for v in values.values()] == [int, float, bool, bool, str, str]

    def test_single_quotes(self, tmp_path):
        assert load_config(_config_file(tmp_path, "user_agent = 'a b'"), env={}).user_agent == "a b"

    def test_missing_equals(self, tmp_path):
        path = _config_file(tmp_path, "seed = 1\nnot a pair\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: expected"):
            load_config(path, env={})

    def test_empty_key(self, tmp_path):
        with pytest.raises(ConfigError, match="empty key"):
            load_config(_config_file(tmp_path, "= 3\n"), env={})

    def test_missing_value(self, tmp_path):
        path = _config_file(tmp_path, "seed =\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:1: missing value"):
            load_config(path, env={})

    def test_unterminated_string(self, tmp_path):
        with pytest.raises(ConfigError, match="unterminated"):
            load_config(_config_file(tmp_path, 'user_agent = "oops\n'), env={})

    @pytest.mark.parametrize(
        "line, message",
        [
            ("k = 4.9", "k: cannot interpret '4.9'"),
            ("seed = true", "seed: cannot interpret 'true'"),
            ("live = 1", "live: cannot interpret '1'"),
            ("sede = 9", "unknown configuration key 'sede'"),
        ],
    )
    def test_value_of_the_wrong_type_names_its_line(self, tmp_path, line, message):
        path = _config_file(tmp_path, f"seed = 1\n{line}\n")
        with pytest.raises(ConfigError) as err:
            load_config(path, env={})
        assert str(err.value) == f"{path}:2: {message}"

    def test_bare_values_of_string_keys_kept_verbatim(self, tmp_path):
        path = _config_file(tmp_path, "user_agent = true\ntop_sites = 1.50\nn_range = 02..3\n")
        config = load_config(path, env={})
        assert (config.user_agent, config.top_sites, config.n_range) == ("true", "1.50", "02..3")

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        config = load_config(_config_file(tmp_path, example), env={})
        assert (config.urls, config.parallel, config.live) == ("sites.txt", 4, False)

    def test_quoted_values_read_as_their_key_type(self, tmp_path):
        config = load_config(_config_file(tmp_path, "seed = '7'\nlive = \"TRUE\"\n"), env={})
        assert (config.seed, config.live) == (7, True)


class TestLoadConfig:
    def test_defaults(self):
        config = load_config(env={})
        assert config.seed == 42
        assert config.parallel == 4
        assert config.cosine_cutoff == 0.4
        assert config.out_dir == "out"
        assert config.urls is None

    def test_file_overrides_defaults(self, tmp_path):
        f = tmp_path / "run.conf"
        f.write_text("seed = 9\nparallel = 2\n")
        config = load_config(f, env={})
        assert (config.seed, config.parallel) == (9, 2)

    def test_env_overrides_file(self, tmp_path):
        f = tmp_path / "run.conf"
        f.write_text("seed = 9\n")
        config = load_config(f, env={"TOPICPAGES_SEED": "13", "UNRELATED": "x"})
        assert config.seed == 13

    def test_flags_override_env(self, tmp_path):
        config = load_config(env={"TOPICPAGES_SEED": "13"}, overrides={"seed": 21})
        assert config.seed == 21

    def test_none_override_is_ignored(self):
        config = load_config(env={}, overrides={"seed": None})
        assert config.seed == 42

    def test_env_booleans_coerced(self):
        config = load_config(env={"TOPICPAGES_LIVE": "true"})
        assert config.live is True

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigError, match="live"):
            load_config(env={"TOPICPAGES_LIVE": "yes"})

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            load_config(env={"TOPICPAGES_SEED": "many"})

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "run.conf"
        f.write_text("sede = 9\n")
        with pytest.raises(ConfigError, match="sede"):
            load_config(f, env={})

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.conf", env={})

    def test_env_and_flags_share_the_file_coercion(self):
        with pytest.raises(ConfigError, match=r"^k: cannot interpret '4\.9'$"):
            load_config(env={"TOPICPAGES_K": "4.9"})
        with pytest.raises(ConfigError, match=r"^k: cannot interpret '4\.9'$"):
            load_config(env={}, overrides={"k": "4.9"})
        config = load_config(env={}, overrides={"timeout": "2", "live": True, "urls": "u.txt"})
        assert (config.timeout, config.live, config.urls) == (2.0, True, "u.txt")
        assert type(config.timeout) is float

    def test_every_key_typed_by_its_default_and_helped(self):
        assert len(fields(PipelineConfig)) == len(TYPES) == 27
        assert (TYPES["urls"], TYPES["k"], TYPES["timeout"], TYPES["live"]) == (str, int, float, bool)
        assert all(f.metadata["help"] for f in fields(PipelineConfig))

    def test_top_sites_set(self):
        config = load_config(env={"TOPICPAGES_TOP_SITES": "a.example, b.example,"})
        assert config.top_sites_set() == frozenset({"a.example", "b.example"})


class TestValidate:
    def test_configured_paths_must_exist(self, tmp_path):
        config = PipelineConfig(urls=str(tmp_path / "absent.txt"))
        with pytest.raises(ConfigError, match="urls"):
            config.validate()

    def test_required_keys(self, tmp_path):
        config = PipelineConfig()
        with pytest.raises(ConfigError, match="dictionary is required"):
            config.validate(require=("dictionary",))

    def test_ok_when_paths_exist(self, tmp_path):
        f = tmp_path / "urls.txt"
        f.write_text("https://a.example/\n")
        PipelineConfig(urls=str(f)).validate(require=("urls",))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"seed": -1}, "seed"),
            ({"parallel": 0}, "parallel"),
            ({"cosine_cutoff": 1.5}, "cosine_cutoff"),
            ({"min_df": 0}, "min_df"),
            ({"timeout": 0.0}, "timeout"),
            ({"timeout": -1.0}, "timeout"),
            ({"timeout": math.inf}, "timeout"),
            ({"timeout": math.nan}, "timeout"),
            ({"retries": -1}, "retries"),
            ({"pca_n": 0}, "pca_n"),
            ({"k": 0}, "k must be"),
            ({"restarts": 0}, "restarts"),
            ({"b_refs": 0}, "b_refs"),
            ({"top_tp": 0}, "top_tp"),
            ({"n_range": "x"}, "n_range: bad range"),
            ({"k_range": "5..2"}, "k_range: bad range"),
            ({"n_range": "0..3"}, "n_range must start"),
            ({"k_range": "0"}, "k_range must start"),
        ],
    )
    def test_range_checks(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            PipelineConfig(**kwargs).validate()

    def test_defaults_pass(self):
        PipelineConfig().validate()

    def test_problems_joined(self, tmp_path):
        config = PipelineConfig(seed=-1, parallel=0)
        with pytest.raises(ConfigError, match="seed.*parallel"):
            config.validate()


class TestParseRange:
    def test_inclusive_span(self):
        assert list(parse_range("2..5")) == [2, 3, 4, 5]

    def test_single_value(self):
        assert list(parse_range("7")) == [7]

    def test_whitespace_tolerated(self):
        assert list(parse_range(" 3..4 ")) == [3, 4]

    @pytest.mark.parametrize("spec", ["5..2", "a..b", "2..", "x", ""])
    def test_bad_specs(self, spec):
        with pytest.raises(ConfigError):
            parse_range(spec)
