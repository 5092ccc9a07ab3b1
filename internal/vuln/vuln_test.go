package vuln

import (
	"testing"
	"testing/quick"

	"genio/internal/host"
)

func TestCompareVersions(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1.0", "1.0", 0},
		{"1.0", "1.1", -1},
		{"1.10", "1.9", 1},
		{"2.0.0", "2.0", 0},
		{"1.21.0", "1.22.0", -1},
		{"7.9p1", "8.0", -1},
		{"7.9p1", "7.9p2", -1},
		{"7.9", "7.9p1", -1},
		{"4.19.81", "4.19.300", -1},
		{"19.03.8", "20.10.0", -1},
		{"1.1.1d", "1.1.1t", -1},
		{"3.0.2", "1.1.1t", 1},
		{"2.5.0-rc1", "2.5.0-rc2", -1},
	}
	for _, c := range cases {
		if got := CompareVersions(c.a, c.b); got != c.want {
			t.Errorf("CompareVersions(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: comparison is antisymmetric and reflexive.
func TestCompareVersionsProperty(t *testing.T) {
	f := func(a, b uint8, c, d uint8) bool {
		v1 := versionOf(a, b)
		v2 := versionOf(c, d)
		if CompareVersions(v1, v1) != 0 {
			return false
		}
		return CompareVersions(v1, v2) == -CompareVersions(v2, v1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func versionOf(a, b uint8) string {
	return string(rune('0'+a%10)) + "." + string(rune('0'+b%10))
}

func TestCVEAffects(t *testing.T) {
	c := CVE{ID: "X", Package: "p", Introduced: "2.0", FixedIn: "3.0"}
	cases := map[string]bool{
		"1.9": false, "2.0": true, "2.5": true, "2.9.9": true,
		"3.0": false, "3.1": false,
	}
	for v, want := range cases {
		if got := c.Affects(v); got != want {
			t.Errorf("Affects(%q) = %v, want %v", v, got, want)
		}
	}
	// Open-ended ranges.
	noFix := CVE{Introduced: "1.0"}
	if !noFix.Affects("99.0") {
		t.Fatal("unfixed CVE must affect all later versions")
	}
	allEarlier := CVE{FixedIn: "2.0"}
	if !allEarlier.Affects("0.1") || allEarlier.Affects("2.0") {
		t.Fatal("empty Introduced must cover all earlier versions")
	}
}

func TestSeverityBuckets(t *testing.T) {
	cases := map[float64]Severity{
		9.8: SeverityCritical, 9.0: SeverityCritical,
		8.9: SeverityHigh, 7.0: SeverityHigh,
		6.9: SeverityMedium, 4.0: SeverityMedium,
		3.9: SeverityLow, 0.1: SeverityLow,
	}
	for score, want := range cases {
		if got := SeverityFromCVSS(score); got != want {
			t.Errorf("SeverityFromCVSS(%.1f) = %v, want %v", score, got, want)
		}
	}
	if SeverityCritical.String() != "critical" || Severity(9).String() != "severity(9)" {
		t.Fatal("Severity.String mismatch")
	}
}

func TestDatabaseMatchSorted(t *testing.T) {
	db := NewDatabase()
	db.Add(CVE{ID: "A", Package: "p", CVSS: 5.0})
	db.Add(CVE{ID: "B", Package: "p", CVSS: 9.0})
	db.Add(CVE{ID: "C", Package: "p", FixedIn: "1.0", CVSS: 9.9}) // fixed, excluded
	db.Add(CVE{ID: "D", Package: "other", CVSS: 9.9})
	got := db.Match("p", "2.0")
	if len(got) != 2 || got[0].ID != "B" || got[1].ID != "A" {
		t.Fatalf("Match = %+v", got)
	}
	if n := len(db.All()); n != 4 {
		t.Fatalf("database holds %d records, want 4", n)
	}
	if _, ok := db.Get("A"); !ok {
		t.Fatal("Get(A) failed")
	}
	// Replacing a record must not duplicate the index.
	db.Add(CVE{ID: "A", Package: "p", CVSS: 6.0})
	if got := db.Match("p", "2.0"); len(got) != 2 {
		t.Fatalf("after replace, Match = %d findings, want 2", len(got))
	}
}

func TestScannerFindsFixtureVulns(t *testing.T) {
	h := host.NewONLOLT("olt-01")
	s := NewScanner(DefaultDatabase())
	rep := s.Scan(h)
	if len(rep.Findings) == 0 {
		t.Fatal("no findings on unpatched fixture host")
	}
	ids := map[string]bool{}
	for _, f := range rep.Findings {
		ids[f.CVE.ID] = true
	}
	// Standard-path packages must be found.
	if !ids["CVE-2023-1001"] { // openssh
		t.Fatal("openssh CVE missed")
	}
	if !ids["CVE-2023-1005"] { // docker
		t.Fatal("docker CVE missed")
	}
}

func TestScannerBlindToNonStandardPaths(t *testing.T) {
	// Lesson 4: ONOS/VOLTHA live under /opt and are skipped until the
	// scanner is tuned with those prefixes.
	h := host.NewONLOLT("olt-01")
	s := NewScanner(DefaultDatabase())
	rep := s.Scan(h)
	for _, f := range rep.Findings {
		if f.Package == "onos" || f.Package == "voltha" {
			t.Fatalf("untuned scanner found %s under non-standard path", f.Package)
		}
	}
	if rep.Skipped == 0 {
		t.Fatal("Skipped = 0; fixture should have non-standard paths")
	}

	s.AddSearchPath("/opt/")
	s.AddSearchPath("/lib/onl")
	rep2 := s.Scan(h)
	found := map[string]bool{}
	for _, f := range rep2.Findings {
		found[f.Package] = true
	}
	if !found["onos"] || !found["voltha"] {
		t.Fatalf("tuned scanner still missing SDN packages: %+v", found)
	}
	if rep2.Skipped != 0 {
		t.Fatalf("tuned scanner skipped %d packages", rep2.Skipped)
	}
	if len(rep2.Findings) <= len(rep.Findings) {
		t.Fatal("tuning did not increase findings")
	}
}

func TestScanReportSeverityCounts(t *testing.T) {
	h := host.NewONLOLT("olt-01")
	s := NewScanner(DefaultDatabase())
	s.AddSearchPath("/opt/")
	rep := s.Scan(h)
	critical := 0
	for _, f := range rep.Findings {
		if f.CVE.Severity() == SeverityCritical {
			critical++
		}
	}
	if critical == 0 {
		t.Fatalf("findings = %+v, want at least one critical (docker escape)", rep.Findings)
	}
}

func TestFeedVisibility(t *testing.T) {
	structured := Feed{Kind: FeedStructured, PublishLagDays: 1}
	day, manual, ok := structured.Visibility(10)
	if !ok || day != 11 || manual != 0 {
		t.Fatalf("structured = %d, %d, %v", day, manual, ok)
	}
	blog := Feed{Kind: FeedBlog, PublishLagDays: 7, ManualReviewDays: 2}
	day, manual, ok = blog.Visibility(10)
	if !ok || day != 19 || manual != 1 {
		t.Fatalf("blog = %d, %d, %v", day, manual, ok)
	}
	stale := Feed{Kind: FeedStale}
	if _, _, ok := stale.Visibility(10); ok {
		t.Fatal("stale feed delivered an advisory")
	}
	ui := Feed{Kind: FeedUIOnly, PublishLagDays: 3, PollIntervalDays: 14, ManualReviewDays: 1}
	day, _, ok = ui.Visibility(0)
	if !ok || day != 18 {
		t.Fatalf("ui-only day = %d, want 18", day)
	}
}

func TestTrackerPicksFastestFeed(t *testing.T) {
	// kubelet is carried by both the structured k8s feed (fast) and NVD
	// (slower, manual); tracking must use the structured one.
	tr := NewTracker(DefaultFeeds(), 5)
	db := DefaultDatabase()
	c, _ := db.Get("CVE-2023-1006")
	exp := tr.Track(c)
	if exp.BestFeed != "kubernetes-official-cve" {
		t.Fatalf("BestFeed = %s", exp.BestFeed)
	}
	if exp.ManualSteps != 0 {
		t.Fatalf("ManualSteps = %d, want 0 for structured feed", exp.ManualSteps)
	}
	if exp.WindowDays != 1+5 {
		t.Fatalf("WindowDays = %d, want 6", exp.WindowDays)
	}
}

func TestTrackerONOSFallsBackToNVD(t *testing.T) {
	// The ONOS feed is stale; NVD catches it with manual review cost.
	tr := NewTracker(DefaultFeeds(), 5)
	db := DefaultDatabase()
	c, _ := db.Get("CVE-2023-1007")
	exp := tr.Track(c)
	if exp.NeverVisible {
		t.Fatal("ONOS CVE never visible despite NVD fallback")
	}
	if exp.BestFeed != "nvd-api" {
		t.Fatalf("BestFeed = %s, want nvd-api", exp.BestFeed)
	}
	if exp.ManualSteps == 0 {
		t.Fatal("NVD path must cost manual review")
	}
}

func TestTrackerWithoutNVDMissesStaleComponents(t *testing.T) {
	var feeds []Feed
	for _, f := range DefaultFeeds() {
		if f.Kind != FeedNVD {
			feeds = append(feeds, f)
		}
	}
	tr := NewTracker(feeds, 5)
	db := DefaultDatabase()
	c, _ := db.Get("CVE-2023-1007")
	if exp := tr.Track(c); !exp.NeverVisible {
		t.Fatal("stale-feed component visible without NVD fallback")
	}
}

func TestTrackAllOrdering(t *testing.T) {
	tr := NewTracker(DefaultFeeds(), 5)
	exposures := tr.TrackAll(DefaultDatabase())
	if len(exposures) != len(DefaultDatabase().All()) {
		t.Fatalf("TrackAll = %d, want %d", len(exposures), len(DefaultDatabase().All()))
	}
	// Visible exposures sorted by descending window after any never-visible.
	seenVisible := false
	last := 1 << 30
	for _, e := range exposures {
		if e.NeverVisible {
			if seenVisible {
				t.Fatal("never-visible exposure after visible ones")
			}
			continue
		}
		seenVisible = true
		if e.WindowDays > last {
			t.Fatal("exposures not sorted by window")
		}
		last = e.WindowDays
	}
}

func TestKBOMPrecision(t *testing.T) {
	db := DefaultDatabase()
	k := DefaultKBOM()
	findings := k.Match(db)
	if len(findings) == 0 {
		t.Fatal("KBOM matched nothing")
	}
	ids := map[string]bool{}
	for _, f := range findings {
		ids[f.CVE.ID] = true
	}
	// kube-apiserver 1.21.0 is affected (fixed in 1.21.9).
	if !ids["CVE-2023-1010"] {
		t.Fatal("kube-apiserver CVE missed by KBOM")
	}
	// etcd 3.4.13 is affected (fixed in 3.5.8).
	if !ids["CVE-2023-1011"] {
		t.Fatal("etcd CVE missed by KBOM")
	}
	// Sorted by CVSS descending.
	for i := 1; i < len(findings); i++ {
		if findings[i].CVE.CVSS > findings[i-1].CVE.CVSS {
			t.Fatal("KBOM findings not sorted")
		}
	}
}

func TestFeedKindString(t *testing.T) {
	if FeedStructured.String() != "structured" || FeedKind(9).String() != "feed(9)" {
		t.Fatal("FeedKind.String mismatch")
	}
}

// BenchmarkVulnScan: per-operation cost behind Lesson 4 (scanning).
func BenchmarkVulnScan(b *testing.B) {
	h := host.NewONLOLT("olt-bench")
	s := NewScanner(DefaultDatabase())
	s.AddSearchPath("/opt/")
	s.AddSearchPath("/lib/onl")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Scan(h)
	}
}

// BenchmarkFeedTracking: per-operation cost behind Lesson 6 (feeds).
func BenchmarkFeedTracking(b *testing.B) {
	tr := NewTracker(DefaultFeeds(), 5)
	db := DefaultDatabase()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.TrackAll(db)
	}
}
