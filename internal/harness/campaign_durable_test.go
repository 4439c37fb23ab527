package harness

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"hauberk/internal/core/translate"
	"hauberk/internal/guardian"
	"hauberk/internal/workloads"
)

// tinyScale keeps the differential campaigns fast: a handful of sites and
// masks is enough to exercise every store/watchdog/shard path.
func tinyScale() Scale {
	return Scale{
		MaxSites:     6,
		MasksPerSite: 4,
		BitCounts:    []int{1, 6},
		Fig15Samples: 100,
	}
}

// planTiny builds a small campaign for CP and its prerequisites.
func planTiny(t *testing.T, e *Env) (*workloads.Spec, *GoldenRun, *ProfileResult, []Injection) {
	t.Helper()
	spec := workloads.ByName("CP")
	ds := workloads.Dataset{Index: 0}
	golden, err := e.Golden(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := e.Profile(spec, []workloads.Dataset{ds})
	if err != nil {
		t.Fatal(err)
	}
	plan := e.PlanCampaign(spec, prof, e.Scale.BitCounts)
	if len(plan) < 8 {
		t.Fatalf("tiny plan has only %d injections", len(plan))
	}
	return spec, golden, prof, plan
}

// TestCampaignResumeDifferential is the kill-and-resume guarantee: a
// campaign interrupted at ~50% and resumed yields figure aggregates
// byte-identical to the same campaign run uninterrupted, and to the plain
// in-memory runner.
func TestCampaignResumeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	e.Scale.Workers = 1 // serial dispatch makes the interrupt point exact
	spec, golden, prof, plan := planTiny(t, e)

	// Reference 1: the in-memory runner.
	mem, err := e.RunCampaign(spec, golden, prof.Store, translate.ModeFIFT, plan)
	if err != nil {
		t.Fatal(err)
	}
	// An in-memory campaign has nothing to resume from.
	if _, err := e.RunCampaignDurable(context.Background(), spec, golden, prof.Store,
		translate.ModeFIFT, plan, CampaignOptions{Resume: true}); err == nil {
		t.Fatal("Resume without a store dir was accepted")
	}
	// Reference 2: an uninterrupted durable run.
	full, err := e.RunCampaignDurable(context.Background(), spec, golden, prof.Store,
		translate.ModeFIFT, plan, CampaignOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := full.FigureDigest(), mem.FigureDigest(); got != want {
		t.Fatalf("durable digest differs from in-memory runner:\n%s\nvs\n%s", got, want)
	}

	// Interrupt at ~50%: cancel once half the shard is durably recorded.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	half := len(plan) / 2
	_, err = e.RunCampaignDurable(ctx, spec, golden, prof.Store, translate.ModeFIFT, plan,
		CampaignOptions{Dir: dir, OnResult: func(done, total int) {
			if done >= half {
				cancel()
			}
		}})
	if !errors.Is(err, ErrCampaignInterrupted) {
		t.Fatalf("interrupted campaign returned %v, want ErrCampaignInterrupted", err)
	}

	// Resume from the kill: without Resume the store must refuse…
	if _, err := e.RunCampaignDurable(context.Background(), spec, golden, prof.Store,
		translate.ModeFIFT, plan, CampaignOptions{Dir: dir}); err == nil {
		t.Fatal("re-launch without Resume accepted a non-empty store")
	}
	// …and with Resume it completes only the remainder.
	resumed, err := e.RunCampaignDurable(context.Background(), spec, golden, prof.Store,
		translate.ModeFIFT, plan, CampaignOptions{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.FigureDigest(), full.FigureDigest(); got != want {
		t.Fatalf("resumed digest differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	// The merged-directory loader sees the same aggregates.
	_, loaded, err := LoadCampaignDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.FigureDigest(), full.FigureDigest(); got != want {
		t.Fatalf("loaded digest differs:\n%s\nvs\n%s", got, want)
	}
	if !reflect.DeepEqual(loaded.Results, resumed.Results) {
		t.Fatal("loaded results differ from the resumed run's results")
	}
}

// TestCampaignShardDifferential proves -shard 0/2 + -shard 1/2 merged
// equals the unsharded run.
func TestCampaignShardDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	spec, golden, prof, plan := planTiny(t, e)

	whole, err := e.RunCampaignDurable(context.Background(), spec, golden, prof.Store,
		translate.ModeFIFT, plan, CampaignOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var shardTotal int
	for shard := 0; shard < 2; shard++ {
		part, err := e.RunCampaignDurable(context.Background(), spec, golden, prof.Store,
			translate.ModeFIFT, plan, CampaignOptions{Dir: dir, Shard: shard, Shards: 2})
		if err != nil {
			t.Fatalf("shard %d/2: %v", shard, err)
		}
		shardTotal += part.All.Total()
	}
	if shardTotal != len(plan) {
		t.Fatalf("shards cover %d injections, want %d", shardTotal, len(plan))
	}
	// Loading before both shards finish must fail loudly — simulated by a
	// directory holding only shard 0.
	_, merged, err := LoadCampaignDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.FigureDigest(), whole.FigureDigest(); got != want {
		t.Fatalf("merged shard digest differs from unsharded run:\n%s\nvs\n%s", got, want)
	}
}

// TestCampaignIncompleteMergeFails: aggregating a partial campaign is an
// error, never a silently wrong report.
func TestCampaignIncompleteMergeFails(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	spec, golden, prof, plan := planTiny(t, e)
	dir := t.TempDir()
	if _, err := e.RunCampaignDurable(context.Background(), spec, golden, prof.Store,
		translate.ModeFIFT, plan, CampaignOptions{Dir: dir, Shard: 0, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCampaignDir(dir); err == nil {
		t.Fatal("LoadCampaignDir aggregated a campaign missing shard 1/2")
	}
}

// TestCampaignWatchdogClassifiesHang: with a vanishing timeout every
// injection is watchdog-killed and durably classified as a hang failure.
func TestCampaignWatchdogClassifiesHang(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	spec, golden, prof, plan := planTiny(t, e)
	plan = plan[:4]
	cr, err := e.RunCampaignDurable(context.Background(), spec, golden, prof.Store,
		translate.ModeFIFT, plan, CampaignOptions{Dir: t.TempDir(), Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Hangs != len(plan) {
		t.Fatalf("watchdog classified %d hangs, want %d", cr.Hangs, len(plan))
	}
	for i, r := range cr.Results {
		if !r.TimedOut || r.Outcome != OutcomeFailure || !r.Hang {
			t.Fatalf("result %d = %+v, want a timed-out hang failure", i, r)
		}
	}
}

// TestGuardRetriesWithBackoff drives the guard envelope with a synthetic
// flaky runner: two infrastructure failures, then success.
func TestGuardRetriesWithBackoff(t *testing.T) {
	var delays []time.Duration
	calls := 0
	g := guard{
		timeout: time.Second,
		retries: 2,
		backoff: guardian.BackoffPolicy{Init: 1, Factor: 2},
		onRetry: func(_ int, d time.Duration) { delays = append(delays, d) },
	}
	r, err := g.run(context.Background(), Injection{}, func() (*InjectionResult, error) {
		calls++
		if calls <= 2 {
			return nil, errors.New("transient infrastructure error")
		}
		return &InjectionResult{Outcome: OutcomeMasked}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || r.Retries != 2 {
		t.Fatalf("calls=%d retries=%d, want 3 and 2", calls, r.Retries)
	}
	want := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond}
	if !reflect.DeepEqual(delays, want) {
		t.Fatalf("backoff delays %v, want %v (guardian doubling policy)", delays, want)
	}

	// Retries exhausted: the error surfaces.
	g.retries = 1
	calls = 0
	_, err = g.run(context.Background(), Injection{}, func() (*InjectionResult, error) {
		calls++
		return nil, errors.New("persistent infrastructure error")
	})
	if err == nil || calls != 2 {
		t.Fatalf("exhausted guard: err=%v calls=%d, want error after 2 calls", err, calls)
	}
}

// TestGuardTimeoutAndCancel covers the synthetic watchdog kill and the
// context-cancel path.
func TestGuardTimeoutAndCancel(t *testing.T) {
	kills := 0
	g := guard{timeout: 5 * time.Millisecond, onTimeout: func() { kills++ }}
	block := make(chan struct{})
	defer close(block)
	r, err := g.run(context.Background(), Injection{Bits: 6}, func() (*InjectionResult, error) {
		<-block
		return &InjectionResult{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.TimedOut || !r.Hang || r.Outcome != OutcomeFailure || kills != 1 {
		t.Fatalf("watchdog result %+v kills=%d", r, kills)
	}
	if r.Injection.Bits != 6 {
		t.Fatal("watchdog result lost the injection metadata")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.run(ctx, Injection{}, func() (*InjectionResult, error) {
		<-block
		return &InjectionResult{}, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled guard returned %v", err)
	}
}

// TestParseShard covers the CLI shard syntax.
func TestParseShard(t *testing.T) {
	s, n, err := ParseShard("1/4")
	if err != nil || s != 1 || n != 4 {
		t.Fatalf("ParseShard(1/4) = %d,%d,%v", s, n, err)
	}
	for _, bad := range []string{"", "2", "x/2", "1/y", "-1/2", "2/2", "0/0"} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) should fail", bad)
		}
	}
}

// TestPlanCampaignDeterminism: the plan is seeded, so planning twice (or
// in another process/shard) derives the identical injection list, and the
// site spread never duplicates a site when the program has more sites
// than Scale.MaxSites.
func TestPlanCampaignDeterminism(t *testing.T) {
	e := NewEnv(tinyScale())
	e.Scale.MaxSites = 3 // force the spread path
	spec := workloads.ByName("CP")
	prof, err := e.Profile(spec, []workloads.Dataset{{Index: 0}})
	if err != nil {
		t.Fatal(err)
	}
	a := e.PlanCampaign(spec, prof, e.Scale.BitCounts)
	b := e.PlanCampaign(spec, prof, e.Scale.BitCounts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("PlanCampaign is not deterministic for a fixed seed")
	}
	sites := make(map[int]bool)
	for _, inj := range a {
		sites[inj.Cmd.Site] = true
	}
	var live int
	for _, s := range prof.Sites {
		if prof.ExecCounts[s.ID] > 0 {
			live++
		}
	}
	if live <= e.Scale.MaxSites {
		t.Skipf("CP has only %d live sites; spread path not exercised", live)
	}
	if len(sites) != e.Scale.MaxSites {
		t.Fatalf("spread picked %d distinct sites, want %d (duplicates collapse coverage)", len(sites), e.Scale.MaxSites)
	}
	if len(a) != e.Scale.MaxSites*e.Scale.MasksPerSite {
		t.Fatalf("plan has %d injections, want %d", len(a), e.Scale.MaxSites*e.Scale.MasksPerSite)
	}
	// The manifest fingerprints the plan: equal plans, equal hashes.
	m1 := e.CampaignManifest(spec, translate.ModeFIFT, a)
	m2 := e.CampaignManifest(spec, translate.ModeFIFT, b)
	if m1 != m2 {
		t.Fatalf("manifests differ for identical plans: %+v vs %+v", m1, m2)
	}
	if m1.PlanHash == e.CampaignManifest(spec, translate.ModeFI, a).PlanHash {
		t.Fatal("plan hash ignores the library mode")
	}
}
