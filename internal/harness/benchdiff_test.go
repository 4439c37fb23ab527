package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchFixture(speedMul float64) *BenchReport {
	mk := func(ns int64) BenchEngineStats {
		return BenchEngineStats{NsPerOp: ns, CyclesPerSec: 1e9 / float64(ns)}
	}
	scale := func(ns int64) int64 { return int64(float64(ns) * speedMul) }
	unf1, unf2 := mk(scale(1300)), mk(scale(2600))
	return &BenchReport{
		Benchmark: "fixture",
		HostCores: 4,
		Workloads: []BenchWorkload{
			{
				Program: "CP", Cycles: 1000,
				Tree: mk(scale(3000)), Bytecode: mk(scale(1000)), Unfused: &unf1, Parallel: mk(scale(500)),
				Speedup: 3, FusionSpeedup: 1.3, ParallelSpeedup: 2,
			},
			{
				Program: "SAD", Cycles: 2000,
				Tree: mk(scale(6000)), Bytecode: mk(scale(2000)), Unfused: &unf2, Parallel: mk(scale(1000)),
				Speedup: 3, FusionSpeedup: 1.3, ParallelSpeedup: 2,
			},
		},
		GeomeanSpeedup:         3,
		GeomeanFusionSpeedup:   1.3,
		GeomeanParallelSpeedup: 2,
	}
}

func TestDiffBenchReportsCleanPass(t *testing.T) {
	d, err := DiffBenchReports(benchFixture(1), benchFixture(1), BenchDiffOptions{ThresholdPct: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d.Regressed() {
		t.Fatalf("identical reports flagged as regression: %v", d.Regressions)
	}
	for eng, pct := range d.GeomeanDeltaPct {
		if pct != 0 {
			t.Fatalf("engine %s: geomean delta %v on identical reports, want 0", eng, pct)
		}
	}
	if len(d.Workloads) != 2 || len(d.Workloads[0].Engines) != 4 {
		t.Fatalf("expected 2 workloads x 4 engines, got %+v", d.Workloads)
	}
}

func TestDiffBenchReportsFlagsSlowdown(t *testing.T) {
	// Every engine 20% slower: past a 5% threshold, under a 25% one.
	d, err := DiffBenchReports(benchFixture(1), benchFixture(1.2), BenchDiffOptions{ThresholdPct: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Regressed() {
		t.Fatal("20% slowdown not flagged at 5% threshold")
	}
	if len(d.Regressions) != 4 {
		t.Fatalf("want one regression per engine (4), got %v", d.Regressions)
	}
	if !strings.Contains(d.Render(), "REGRESSIONS") {
		t.Fatal("rendered diff does not surface the regressions")
	}

	d, err = DiffBenchReports(benchFixture(1), benchFixture(1.2), BenchDiffOptions{ThresholdPct: 25})
	if err != nil {
		t.Fatal(err)
	}
	if d.Regressed() {
		t.Fatalf("20%% slowdown flagged at 25%% threshold: %v", d.Regressions)
	}
	// Speedups must not regress from a uniform slowdown.
	d, err = DiffBenchReports(benchFixture(1), benchFixture(1.2), BenchDiffOptions{ThresholdPct: 5, RatiosOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.Regressed() {
		t.Fatalf("ratios-only mode flagged a uniform slowdown: %v", d.Regressions)
	}
}

func TestDiffBenchReportsRatiosOnly(t *testing.T) {
	// The fused engine got slower relative to everything else: the
	// tree->bytecode and unfused->fused speedups both collapse.
	slow := benchFixture(1)
	slow.GeomeanSpeedup = 2.0       // was 3
	slow.GeomeanFusionSpeedup = 1.0 // was 1.3
	d, err := DiffBenchReports(benchFixture(1), slow, BenchDiffOptions{ThresholdPct: 5, RatiosOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions) != 2 {
		t.Fatalf("want 2 speedup regressions (tree->bytecode, unfused->fused), got %v", d.Regressions)
	}
	if len(d.Workloads) != 0 {
		t.Fatalf("ratios-only diff produced wall-clock rows: %+v", d.Workloads)
	}
}

// TestDiffBenchReportsMinCoresSkipsParallel pins the degraded-host
// contract: a new report recorded below MinCores does not fail the diff —
// its parallel rows and the serial->parallel ratio are skipped (and the
// skip is rendered), while every other engine stays fully gated.
func TestDiffBenchReportsMinCoresSkipsParallel(t *testing.T) {
	// The degraded host's parallel engine collapsed to the serial fallback
	// (2x slower than the 4-core baseline) — that alone must not regress.
	single := benchFixture(1)
	single.HostCores = 1
	for i := range single.Workloads {
		single.Workloads[i].Parallel.NsPerOp *= 2
		single.Workloads[i].Parallel.DegradedHost = true
		single.Workloads[i].ParallelSpeedup = 1
	}
	single.GeomeanParallelSpeedup = 1

	d, err := DiffBenchReports(benchFixture(1), single, BenchDiffOptions{ThresholdPct: 5, MinCores: 2})
	if err != nil {
		t.Fatalf("single-core new report must be skipped, not failed: %v", err)
	}
	if d.Regressed() {
		t.Fatalf("degraded-host parallel fallback flagged as regression: %v", d.Regressions)
	}
	if len(d.Skipped) == 0 || !strings.Contains(d.Render(), "skipped (not gated)") {
		t.Fatal("degraded-host skip is invisible in the rendered diff")
	}
	for _, w := range d.Workloads {
		for _, e := range w.Engines {
			if e.Engine == "parallel" {
				t.Fatalf("parallel row compared on a degraded host: %+v", e)
			}
		}
	}
	// The ratios-only gate likewise skips the collapsed parallel ratio but
	// still flags a genuine fusion regression.
	single.GeomeanFusionSpeedup = 1.0 // was 1.3
	d, err = DiffBenchReports(benchFixture(1), single, BenchDiffOptions{ThresholdPct: 5, MinCores: 2, RatiosOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions) != 1 || !strings.Contains(d.Regressions[0], "unfused->fused") {
		t.Fatalf("want exactly the unfused->fused regression, got %v", d.Regressions)
	}

	// A baseline recorded on one core never blocks judging a healthy new
	// report.
	if _, err := DiffBenchReports(single, benchFixture(1), BenchDiffOptions{MinCores: 2}); err != nil {
		t.Fatalf("MinCores must judge the new report, not the baseline: %v", err)
	}
}

// TestDiffBenchReportsDegradedStamp pins that a degraded_host stamp on a
// parallel row skips it even without a MinCores option (the stamp is the
// report's own testimony that the measurement is a serial fallback).
func TestDiffBenchReportsDegradedStamp(t *testing.T) {
	stamped := benchFixture(1)
	stamped.Workloads[0].Parallel.NsPerOp *= 3
	stamped.Workloads[0].Parallel.DegradedHost = true
	d, err := DiffBenchReports(benchFixture(1), stamped, BenchDiffOptions{ThresholdPct: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range d.Regressions {
		if strings.Contains(r, "parallel") {
			t.Fatalf("degraded-stamped parallel row gated: %v", r)
		}
	}
}

func TestDiffBenchReportsOldSchema(t *testing.T) {
	// A baseline recorded before the fusion pass has no unfused rows and
	// no fusion geomean; the diff must still cover the other engines.
	old := benchFixture(1)
	for i := range old.Workloads {
		old.Workloads[i].Unfused = nil
		old.Workloads[i].FusionSpeedup = 0
	}
	old.GeomeanFusionSpeedup = 0
	d, err := DiffBenchReports(old, benchFixture(1.1), BenchDiffOptions{ThresholdPct: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.GeomeanDeltaPct["unfused"]; ok {
		t.Fatal("unfused delta computed against a baseline that lacks it")
	}
	for _, eng := range []string{"tree", "bytecode", "parallel"} {
		if _, ok := d.GeomeanDeltaPct[eng]; !ok {
			t.Fatalf("engine %s missing from the diff", eng)
		}
	}
	for _, r := range d.Ratios {
		if r.Name == "unfused->fused" {
			t.Fatal("fusion speedup ratio compared against a baseline that lacks it")
		}
	}
}

func TestLoadBenchReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	data, err := json.MarshalIndent(benchFixture(1), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := LoadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Workloads) != 2 || r.Workloads[0].Unfused == nil {
		t.Fatalf("round-trip lost data: %+v", r)
	}
	if _, err := LoadBenchReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded without error")
	}
	if err := os.WriteFile(path, []byte(`{"workloads":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBenchReport(path); err == nil {
		t.Fatal("empty report loaded without error")
	}
}

// TestLoadBenchReportCommittedBaseline guards the committed BENCH_perf.json
// against schema drift: the gate in CI diffs fresh runs against it, so it
// must always parse.
func TestLoadBenchReportCommittedBaseline(t *testing.T) {
	r, err := LoadBenchReport("../../BENCH_perf.json")
	if err != nil {
		t.Fatal(err)
	}
	if r.GeomeanSpeedup <= 0 || len(r.Workloads) == 0 {
		t.Fatalf("committed baseline is degenerate: %+v", r)
	}
}
