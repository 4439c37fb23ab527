package obs_test

import (
	"strings"
	"sync"
	"testing"

	"hauberk/internal/obs"
	"hauberk/internal/obs/promtext"
)

// TestPromExpositionConformance round-trips the registry's exposition
// through the strict promtext parser: every family, series, label value
// and histogram invariant must survive parse, and hostile label values
// (backslash, quote, newline — the three characters the format escapes)
// must decode back to their original bytes.
func TestPromExpositionConformance(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Help("hauberk_test_total", `counts "things" with \ and
newlines in the help text`)
	reg.Counter("hauberk_test_total", "plain", "value").Add(3)

	hostile := []string{
		`back\slash`,
		`quo"te`,
		"new\nline",
		`all\of"them
at once`,
		`trailing backslash \`,
		`already \" escaped-looking`,
	}
	for i, v := range hostile {
		reg.Counter("hauberk_test_total", "k", v).Add(int64(i + 1))
	}
	reg.Gauge("hauberk_test_gauge", "mode", "x=y,z").Set(-2.5)
	h := reg.Histogram("hauberk_test_ms", []float64{1, 10, 100}, "op", `mixed\"`)
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}

	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	exp, err := promtext.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse strictly: %v\n%s", err, text)
	}

	// Every hostile value decodes back to its original bytes.
	fam := exp.Family("hauberk_test_total")
	if fam == nil || fam.Type != "counter" {
		t.Fatalf("hauberk_test_total family missing or mistyped: %+v", fam)
	}
	if !strings.Contains(fam.Help, "\n") || !strings.Contains(fam.Help, `\`) {
		t.Fatalf("help text did not round-trip: %q", fam.Help)
	}
	for i, v := range hostile {
		got, ok := exp.Sample("hauberk_test_total", "hauberk_test_total", map[string]string{"k": v})
		if !ok {
			t.Fatalf("label value %q did not round-trip; exposition:\n%s", v, text)
		}
		if got != float64(i+1) {
			t.Fatalf("label value %q maps to sample %v, want %d", v, got, i+1)
		}
	}

	if got, ok := exp.Sample("hauberk_test_gauge", "hauberk_test_gauge", map[string]string{"mode": "x=y,z"}); !ok || got != -2.5 {
		t.Fatalf("gauge with punctuated label: got %v ok=%v", got, ok)
	}

	// Histogram invariants (cumulative buckets, +Inf, _count agreement)
	// are enforced by promtext.Parse itself; check the series landed.
	hf := exp.Family("hauberk_test_ms")
	if hf == nil || hf.Type != "histogram" {
		t.Fatalf("histogram family: %+v", hf)
	}
	if got, ok := exp.Sample("hauberk_test_ms", "hauberk_test_ms_count", map[string]string{"op": `mixed\"`}); !ok || got != 4 {
		t.Fatalf("histogram _count with hostile label: got %v ok=%v\n%s", got, ok, text)
	}
	if got, ok := exp.Sample("hauberk_test_ms", "hauberk_test_ms_bucket", map[string]string{"op": `mixed\"`, "le": "+Inf"}); !ok || got != 4 {
		t.Fatalf("+Inf bucket: got %v ok=%v", got, ok)
	}
}

// TestPromExpositionDeterministic pins the sorted, diffable property
// the exposition writer documents.
func TestPromExpositionDeterministic(t *testing.T) {
	build := func() string {
		reg := obs.NewRegistry()
		reg.Counter("hauberk_z_total", "b", "2").Inc()
		reg.Counter("hauberk_z_total", "a", "1").Inc()
		reg.Counter("hauberk_a_total").Inc()
		reg.Gauge("hauberk_m").Set(1)
		var sb strings.Builder
		if err := reg.WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := build()
	for i := 0; i < 5; i++ {
		if got := build(); got != first {
			t.Fatalf("exposition not deterministic:\n%s\nvs\n%s", first, got)
		}
	}
	if strings.Index(first, "hauberk_a_total") > strings.Index(first, "hauberk_z_total") {
		t.Fatalf("families not sorted:\n%s", first)
	}
}

// TestPromExpositionConcurrentHistogram scrapes a histogram while it is
// being observed: every exposition must pass the parser's histogram
// invariants (_count equal to the +Inf bucket), as a live /metrics scrape
// during a campaign requires.
func TestPromExpositionConcurrentHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("hauberk_test_ms", []float64{1, 10})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				h.Observe(float64(i % 20))
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		if err := reg.WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		if _, err := promtext.Parse(strings.NewReader(sb.String())); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
	}
}
