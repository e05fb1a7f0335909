import html

import pytest
from hypothesis import event, given, settings, strategies as st

import topicpages.urls as urls_mod
from topicpages import normalize, partition_links, read_page, registrable_domain, url_metrics
from topicpages.errors import MalformedRecord, MalformedUrl
from topicpages.lines import _ROW, write_text
from topicpages.urls import PageUrl, read_url_file, url_lines, url_to_record


class TestRegistrableDomain:
    def test_strips_subdomains(self):
        assert registrable_domain("www.thehindu.com") == "thehindu.com"
        assert registrable_domain("sports.ndtv.com") == "ndtv.com"
        assert registrable_domain("a.b.c.example.org") == "example.org"

    def test_multi_label_suffixes(self):
        assert registrable_domain("www.bbc.co.uk") == "bbc.co.uk"
        assert registrable_domain("news.economictimes.indiatimes.com") == "indiatimes.com"
        assert registrable_domain("site.ac.in") == "site.ac.in"
        assert registrable_domain("www.site.ac.in") == "site.ac.in"

    def test_bare_and_short_hosts_pass_through(self):
        assert registrable_domain("localhost") == "localhost"
        assert registrable_domain("example.com") == "example.com"
        assert registrable_domain("192.168.10.1") == "192.168.10.1"

    def test_custom_suffix_set(self):
        suffixes = frozenset({"city.test"})
        assert registrable_domain("news.mysite.city.test", suffixes) == "mysite.city.test"
        # default rule: last two labels
        assert registrable_domain("news.mysite.city.test") == "city.test"


class TestNormalize:
    def test_canonical_form(self):
        u = normalize("HTTPS://WWW.Example.COM:443/News/Cricket?ref=home#latest")
        assert u.normalized == "https://www.example.com/News/Cricket/"
        assert u.domain == "example.com"
        assert u.subpaths == ("News", "Cricket")

    def test_default_port_dropped_custom_kept(self):
        assert normalize("http://a.example:80/x").normalized == "http://a.example/x/"
        assert normalize("http://a.example:8080/x").normalized == "http://a.example:8080/x/"

    def test_homepage_has_no_subpaths(self):
        u = normalize("https://site.example")
        assert u.normalized == "https://site.example/"
        assert u.subpaths == ()
        assert url_metrics(u).max_subpath_length == 0

    def test_query_and_fragment_removed(self):
        a = normalize("https://site.example/sports/?utm_source=tw")
        b = normalize("https://site.example/sports/#scores")
        assert a.normalized == b.normalized == "https://site.example/sports/"

    def test_relative_resolution(self):
        base = normalize("https://site.example/")
        assert normalize("/sports/", base=base).normalized == "https://site.example/sports/"
        assert normalize("weather/", base=base).normalized == "https://site.example/weather/"
        assert (
            normalize("//cdn.other.example/lib/", base=base).normalized
            == "https://cdn.other.example/lib/"
        )

    def test_dot_segments_of_an_absolute_href_are_removed(self):
        u = normalize("http://h.example/a/../b/")
        assert (u.normalized, u.subpaths) == ("http://h.example/b/", ("b",))
        assert normalize("http://h.example/./a/b/..").subpaths == ("a",)
        assert normalize("http://h.example/../../a").subpaths == ("a",)

    @settings(max_examples=40, deadline=None)
    @given(segments=st.lists(st.sampled_from(["a", "b", "", ".", ".."]), min_size=1, max_size=6))
    def test_absolute_href_gives_the_url_of_its_root_relative_form(self, segments):
        path = "/" + "/".join(segments)
        if path.startswith("//"):  # a network-path reference names another host
            path = "/a" + path
        relative = normalize(path, base=normalize("http://h.example/"))
        absolute = normalize("http://h.example" + path)
        assert (absolute.normalized, absolute.subpaths) == (relative.normalized, relative.subpaths)

    @pytest.mark.parametrize(
        "bad", ["", "   ", "ftp://site.example/x", "mailto:a@b.c", "http://", "not a url"]
    )
    def test_malformed(self, bad):
        with pytest.raises(MalformedUrl):
            normalize(bad)

    def test_metrics(self):
        u = normalize("https://news-site.example/city/mumbai-south-gate-news/")
        m = url_metrics(u)
        assert m.url_length == len("https://news-site.example/city/mumbai-south-gate-news/")
        assert m.max_subpath_length == len("mumbai-south-gate-news")
        assert m.max_hyphens == 3


@given(
    st.builds(
        lambda host, path: f"https://{host}/{path}",
        host=st.from_regex(r"[a-z][a-z0-9]{0,8}(\.[a-z][a-z0-9]{0,8}){1,3}", fullmatch=True),
        path=st.lists(
            st.from_regex(r"[A-Za-z0-9][A-Za-z0-9-]{0,10}", fullmatch=True), max_size=4
        ).map("/".join),
    )
)
def test_normalize_idempotent(raw):
    once = normalize(raw)
    twice = normalize(once.normalized)
    assert twice.normalized == once.normalized
    assert twice.subpaths == once.subpaths
    assert twice.domain == once.domain


HOMEPAGE_HTML = """
<html><body>
<nav><a href="/sports/">Sports</a><a href="/sports/">Sports dup</a></nav>
<area href="/politics/">
<div href="/div-link/">odd but collected</div>
<a href="https://sub.mysite.example/weather/">same registrable domain</a>
<a href="https://other-site.example/story/">external</a>
<a href="HTTPS://MYSITE.EXAMPLE/Sports/">case differs in path</a>
<a href="mailto:tips@mysite.example">mail</a>
<a href="javascript:void(0)">js</a>
<a href="#top">frag</a>
<a href="http://[broken/">bad</a>
</body></html>
"""


class TestExtractLinks:
    def test_partition(self):
        base = normalize("https://mysite.example/")
        part = partition_links(read_page(HOMEPAGE_HTML)[0], base)
        internal = [u.normalized for u in part.internal]
        assert internal == [
            "https://mysite.example/sports/",
            "https://mysite.example/politics/",
            "https://mysite.example/div-link/",
            "https://sub.mysite.example/weather/",
            "https://mysite.example/Sports/",
        ]
        assert [u.normalized for u in part.external] == ["https://other-site.example/story/"]
        assert part.skipped == 1  # only the unparseable href counts

    def test_relative_links_resolve_against_base(self):
        base = normalize("https://mysite.example/")
        part = partition_links(read_page('<a href="jobs/">Jobs</a>')[0], base)
        assert [u.normalized for u in part.internal] == ["https://mysite.example/jobs/"]

    def test_empty_document(self):
        base = normalize("https://mysite.example/")
        part = partition_links(read_page("<html><body>no links</body></html>")[0], base)
        assert part.internal == () and part.external == () and part.skipped == 0


def reference_extract(hrefs, base, suffixes):
    """partition_links() with every href resolved by normalize()."""
    seen, internal, external, skipped = set(), [], [], 0
    for href in hrefs:
        href = href.strip()
        if not href or href.lower().startswith(("javascript:", "mailto:", "#")):
            continue
        try:
            url = normalize(href, base=base, suffixes=suffixes)
        except MalformedUrl:
            skipped += 1
            continue
        if url.normalized not in seen:
            seen.add(url.normalized)
            (internal if url.domain == base.domain else external).append(url)
    return tuple(internal), tuple(external), skipped


SEGMENT = st.one_of(
    st.from_regex(r"[A-Za-z0-9_~.-]{1,8}", fullmatch=True),
    st.sampled_from([".", "..", "...", "", "a;b", "%41", "caf\u00e9", "a:b", "A-B"]),
)
TAIL = st.sampled_from(["", "?q=1", "#frag", "?", "#", "?a=1&b=2#f", "?x=/../", "#a b"])
HOST = st.one_of(
    st.lists(st.from_regex(r"[A-Za-z0-9-]{1,6}", fullmatch=True), min_size=1, max_size=3)
    .map(".".join),
    st.sampled_from([
        "MySite.Example", "sub.mysite.example", "news.mysite.city.test", "mysite.example.",
        "user@mysite.example", "10.0.0.1", "[::1]", "[2001:db8::1]", "caf\u00e9.example", "a..b",
    ]),
)
# absolute hrefs: scheme and host case, ports, userinfo, IP and odd hosts, and
# paths and tails the shortcut serves or leaves to normalize
ABSOLUTE = st.tuples(
    st.sampled_from(["http", "https", "HTTP", "Https"]),
    HOST,
    st.sampled_from(["", ":80", ":443", ":8080", ":"]),
    st.lists(SEGMENT, max_size=3).map(lambda segs: "".join("/" + seg for seg in segs)),
    st.sampled_from(["", "/"]),
    TAIL,
).map(lambda t: f"{t[0]}://{''.join(t[1:])}")
HREF = st.one_of(
    st.lists(SEGMENT, max_size=4).map(lambda segs: "/" + "/".join(segs)),
    st.lists(SEGMENT, max_size=4).map(lambda segs: "/" + "/".join(segs) + "/"),
    st.tuples(
        st.lists(SEGMENT, min_size=1, max_size=3).map("/".join),
        st.sampled_from(["?q=1", "#frag", "?", "#"]),
    ).map(lambda t: "/" + t[0] + t[1]),
    st.tuples(st.lists(SEGMENT, max_size=3), TAIL).map(
        lambda t: "/" + "".join(seg + "/" for seg in t[0]) + t[1]),
    ABSOLUTE,
    st.lists(SEGMENT, min_size=1, max_size=3).map("/".join),  # path-relative
    st.sampled_from([
        "/", "//", "//other.example/x/", "///x", "/./x", "/x/../y", " /padded/ ", "/x//y",
        "https://Sub.MySite.City.Test/News/", "http://other.example:8080/a", "#top",
        "mailto:a@b.c", "javascript:void(0)", "http://[broken/", "/x\ty", "/a b",
    ]),
)
BASE = st.one_of(
    st.sampled_from([
        "https://mysite.example/",
        "https://news.mysite.city.test/",
        "http://Sub.MYSITE.example:80/",
        "https://mysite.example:8443/home/",
        "http://127.0.0.1:8080/",
    ]).map(normalize),
    # bases not produced by normalize(): raw casing, a default port, an IPv6
    # literal, a path and query, and schemes the fast path must not serve
    st.sampled_from([
        "HTTPS://MySite.Example:443/Index.html?x=1",
        "http://[::1]:8080/",
        "http://[2001:db8::1]/news/",
        "ftp://mysite.example/",
        "http:///nohost/",
    ]).map(lambda raw: PageUrl(raw=raw, normalized=raw, domain="mysite.example", subpaths=())),
)
SUFFIXES = st.sampled_from([None, frozenset({"city.test", "example"}), frozenset({"test"})])


def served_by_shortcut(hrefs, base, suffixes):
    """For each href, whether partition_links resolves it without normalize."""
    try:
        origin = normalize("/", base=base, suffixes=suffixes)
    except MalformedUrl:
        return [False] * len(hrefs)
    return [urls_mod._resolve_plain(h.strip(), origin, {}, suffixes) is not None for h in hrefs]


class TestExtractLinksMatchesNormalize:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(HREF, max_size=12), BASE, SUFFIXES)
    def test_every_href_as_normalize_resolves_it(self, hrefs, base, suffixes):
        served = served_by_shortcut(hrefs, base, suffixes)
        event("no hrefs" if not hrefs else "every href by the shortcut" if all(served)
              else "some hrefs by the shortcut" if any(served) else "every href by normalize")
        page = "".join(f'<a href="{html.escape(h, quote=True)}">x</a>' for h in hrefs)
        part = partition_links(read_page(page)[0], base, suffixes)
        expected = reference_extract(hrefs, base, suffixes)
        assert (part.internal, part.external, part.skipped) == expected

    def test_custom_suffixes_move_the_run_domain(self):
        # under these suffixes the page's own domain is mysite.city.test, not
        # the base's city.test, so even its plain paths are external
        base = normalize("https://news.mysite.city.test/")
        part = partition_links(read_page('<a href="/sports/">s</a>')[0], base, frozenset({"city.test"}))
        assert part.internal == ()
        assert [(u.normalized, u.domain) for u in part.external] == [
            ("https://news.mysite.city.test/sports/", "mysite.city.test")
        ]


class TestUrlFiles:
    def test_round_trip(self, tmp_path):
        rows = [
            (normalize("https://a.example/x/"), "a.example"),
            (normalize("https://b.example/y/z/"), "b.example"),
        ]
        path = tmp_path / "urls.jsonl"
        write_text(path, url_lines(rows))
        back = read_url_file(path)
        assert [(u.normalized, site) for u, site in back] == [
            (u.normalized, site) for u, site in rows
        ]
        assert back[1][0].subpaths == ("y", "z")

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "urls.jsonl"
        path.write_text('{"raw": "x"}\n', "utf-8")
        with pytest.raises(MalformedRecord) as err:
            read_url_file(path)
        assert str(err.value).startswith(f"{path}:1: ")

    def test_not_json_reports_number(self, tmp_path):
        path = tmp_path / "urls.jsonl"
        path.write_text("{}\nnot json\n", "utf-8")
        with pytest.raises(MalformedRecord) as err:
            read_url_file(path)
        assert str(err.value).startswith(f"{path}:1: ")


class Label(str):
    """A str subclass: json writes its value, but it is no plain string."""


# any code point, lone surrogates included, and text dense in what JSON escapes
TEXT = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.text(st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfffé日 -'), max_size=6),
)
TEXT = st.one_of(TEXT, TEXT.map(Label))
URLS = st.builds(PageUrl, TEXT, TEXT, TEXT, st.lists(TEXT, max_size=3).map(tuple))


class TestUrlLines:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(URLS, TEXT), max_size=3))
    def test_lines_are_the_row_encoders(self, rows):
        expected = "".join(_ROW.encode(url_to_record(u, site)) + "\n" for u, site in rows)
        assert "".join(url_lines(rows)) == expected

    def test_rows_past_a_chunk_are_written_in_order(self, tmp_path):
        rows = [(PageUrl(f"/s{i}/x-{i}", f"https://a.example/s{i}/x-{i}/", "a.example",
                         (f"s{i}", f"x-{i}")), "a.example") for i in range(2500)]
        assert len(list(url_lines(rows))) == 3
        path = tmp_path / "urls.jsonl"
        write_text(path, url_lines(iter(rows)))
        expected = "".join(_ROW.encode(url_to_record(u, site)) + "\n" for u, site in rows)
        assert path.read_bytes() == expected.encode("utf-8")
        assert read_url_file(path) == rows
