package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
	"hauberk/internal/obs"
	"hauberk/internal/stats"
	"hauberk/internal/swifi"
	"hauberk/internal/workloads"
)

// Injection is one planned fault-injection experiment.
type Injection struct {
	Cmd   swifi.Command
	Site  translate.Site
	Bits  int
	Class kir.DataClass
}

// PlanCampaign derives the injection list for a program: up to
// Scale.MaxSites virtual variables, Scale.MasksPerSite random masks each,
// spread over Scale.BitCounts, with the dynamic injection instance drawn
// from the profiled execution counts (Section VIII's methodology).
func (e *Env) PlanCampaign(spec *workloads.Spec, prof *ProfileResult, bitCounts []int) []Injection {
	rng := stats.NewRng("campaign", spec.Name)
	var sites []translate.Site
	for _, s := range prof.Sites {
		if prof.ExecCounts[s.ID] > 0 {
			sites = append(sites, s)
		}
	}
	if len(sites) > e.Scale.MaxSites {
		// Deterministic spread over the program's variables.
		step := float64(len(sites)) / float64(e.Scale.MaxSites)
		var picked []translate.Site
		for i := 0; i < e.Scale.MaxSites; i++ {
			picked = append(picked, sites[int(float64(i)*step)])
		}
		sites = picked
	}

	var plan []Injection
	for _, site := range sites {
		for m := 0; m < e.Scale.MasksPerSite; m++ {
			bits := bitCounts[m%len(bitCounts)]
			count := prof.ExecCounts[site.ID]
			inst := int64(0)
			if count > 1 {
				inst = rng.Int63n(count)
			}
			plan = append(plan, Injection{
				Cmd:   swifi.Command{Site: site.ID, Instance: inst, Mask: swifi.RandomMask(rng, bits)},
				Site:  site,
				Bits:  bits,
				Class: site.Class,
			})
		}
	}
	return plan
}

// InjectionResult is the classified outcome of one injection run.
type InjectionResult struct {
	Injection Injection
	Outcome   Outcome
	// Hang distinguishes hang failures from crashes.
	Hang bool
	// Activated reports whether the fault was actually injected (the
	// chosen instance executed).
	Activated bool
	// TimedOut marks a run the campaign watchdog killed by wall clock
	// (always a hang failure).
	TimedOut bool
	// Retries counts infrastructure-error retries before this result.
	Retries int
}

// RunInjection executes one fault-injection experiment with the given
// library mode (ModeFI for baseline sensitivity, ModeFIFT for Hauberk
// coverage) and classifies the outcome against the golden run.
func (e *Env) RunInjection(
	spec *workloads.Spec,
	golden *GoldenRun,
	store *ranges.Store,
	mode translate.Mode,
	inj Injection,
) (*InjectionResult, error) {
	return e.runInjectionOn(e.NewDevice, spec, golden, store, mode, inj)
}

// runInjectionOn is RunInjection with an explicit device factory (the
// CPU-mode sensitivity rows of Figure 1 inject on page-protected devices).
func (e *Env) runInjectionOn(
	devFn func() *gpu.Device,
	spec *workloads.Spec,
	golden *GoldenRun,
	store *ranges.Store,
	mode translate.Mode,
	inj Injection,
) (*InjectionResult, error) {
	tr, err := e.Instrument(spec, translate.NewOptions(mode))
	if err != nil {
		return nil, err
	}
	d := devFn()
	inst := spec.Setup(d, golden.Dataset)

	cb := hrt.NewControlBlock(tr.Detectors, store)
	rt := hrt.NewFT(cb)
	injector := &swifi.Injector{}
	injector.Arm(inj.Cmd)
	rt.Inject = injector.Probe

	res := &InjectionResult{Injection: inj}
	_, lerr := d.Launch(tr.Kernel, gpu.LaunchSpec{
		Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: rt,
	})
	res.Activated = injector.Injected
	if lerr != nil {
		res.Outcome = OutcomeFailure
		_, res.Hang = lerr.(*gpu.HangError)
		return res, nil
	}
	out := inst.ReadOutput()
	meets := spec.Requirement.Check(golden.Output, out)
	res.Outcome = Classify(false, cb.SDC(), meets)
	return res, nil
}

// containPanic invokes fn, converting an escaped panic into a classified
// crash failure for the injection — the same OutcomeFailure a
// *gpu.PanicError at the launch boundary yields. Campaign workers run fn
// on pool goroutines with no caller to recover them, so without this a
// single panicking workload would tear down the whole campaign process.
func containPanic(inj Injection, fn func() (*InjectionResult, error)) (r *InjectionResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			r = &InjectionResult{Injection: inj, Outcome: OutcomeFailure}
			err = nil
		}
	}()
	return fn()
}

// CampaignResult aggregates a program's campaign.
type CampaignResult struct {
	Spec    *workloads.Spec
	Results []InjectionResult
	// ByBits tallies outcomes per error-bit count.
	ByBits map[int]*Tally
	// ByClass tallies outcomes per corrupted data class.
	ByClass map[kir.DataClass]*Tally
	// All tallies everything.
	All Tally
	// Hangs counts hang failures.
	Hangs int
}

// aggregate rebuilds the tallies (All, ByBits, ByClass, Hangs) from
// Results. It is shared by the in-memory runner, the durable runner, and
// the shard merger, so every path derives figure aggregates identically.
func (cr *CampaignResult) aggregate() {
	cr.All = Tally{}
	cr.Hangs = 0
	cr.ByBits = make(map[int]*Tally)
	cr.ByClass = make(map[kir.DataClass]*Tally)
	for i := range cr.Results {
		r := &cr.Results[i]
		cr.All.Add(r.Outcome)
		if r.Hang {
			cr.Hangs++
		}
		tb := cr.ByBits[r.Injection.Bits]
		if tb == nil {
			tb = &Tally{}
			cr.ByBits[r.Injection.Bits] = tb
		}
		tb.Add(r.Outcome)
		tc := cr.ByClass[r.Injection.Class]
		if tc == nil {
			tc = &Tally{}
			cr.ByClass[r.Injection.Class] = tc
		}
		tc.Add(r.Outcome)
	}
}

// FigureDigest renders the campaign's aggregate figures (overall tally,
// per-bit-count and per-class breakdowns, hang count) as a deterministic
// string. Two campaigns whose digests are byte-identical produce the same
// Figures 13–16 rows; the resume and shard differential tests — and the
// CI campaign smoke — compare digests across run topologies.
func (cr *CampaignResult) FigureDigest() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d hangs=%d\n", cr.All.Total(), cr.Hangs)
	writeTally := func(label string, t *Tally) {
		fmt.Fprintf(&sb, "%s:", label)
		for o := Outcome(0); o < NumOutcomes; o++ {
			fmt.Fprintf(&sb, " %s=%d", o, t[o])
		}
		fmt.Fprintf(&sb, " coverage=%.6f\n", t.Coverage())
	}
	writeTally("all", &cr.All)
	bits := make([]int, 0, len(cr.ByBits))
	for b := range cr.ByBits {
		bits = append(bits, b)
	}
	sort.Ints(bits)
	for _, b := range bits {
		writeTally(fmt.Sprintf("bits[%d]", b), cr.ByBits[b])
	}
	classes := make([]int, 0, len(cr.ByClass))
	for c := range cr.ByClass {
		classes = append(classes, int(c))
	}
	sort.Ints(classes)
	for _, c := range classes {
		writeTally(fmt.Sprintf("class[%s]", kir.DataClass(c)), cr.ByClass[kir.DataClass(c)])
	}
	return sb.String()
}

// RunCampaign executes a full injection campaign for one program, each
// injection through fault-local replay (replay.go). With an enabled e.Obs
// it journals campaign.start, a campaign.progress event roughly every
// tenth of the plan, and a campaign.done event with the aggregated
// coverage; per-outcome tallies feed the hauberk_injection_outcomes_total
// counter family.
func (e *Env) RunCampaign(
	spec *workloads.Spec,
	golden *GoldenRun,
	store *ranges.Store,
	mode translate.Mode,
	plan []Injection,
) (*CampaignResult, error) {
	out := &CampaignResult{
		Spec:    spec,
		ByBits:  make(map[int]*Tally),
		ByClass: make(map[kir.DataClass]*Tally),
		Results: make([]InjectionResult, len(plan)),
	}
	tab, err := e.recordReplay(spec, golden, store, mode)
	if err != nil {
		return nil, err
	}
	workers, extraWorkers := e.acquireCampaignWorkers()
	defer gpu.ReleaseLaunchSlots(extraWorkers)
	if e.Obs.Enabled() {
		e.Obs.Emit(obs.EvCampaignStart,
			obs.Str("program", spec.Name),
			obs.Int("injections", int64(len(plan))),
			obs.Int("mode", int64(mode)))
	}
	sp := e.Obs.Span(obs.EvCampaignDone)
	progressEvery := len(plan) / 10
	if progressEvery == 0 {
		progressEvery = 1
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		done     int
		firstErr error
	)
	sem := make(chan struct{}, workers)
	for i := range plan {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			r, err := containPanic(plan[i], func() (*InjectionResult, error) {
				return e.replayInjection(tab, plan[i])
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("injection %d: %w", i, err)
				}
				return
			}
			out.Results[i] = *r
			done++
			if e.Obs.Enabled() && done%progressEvery == 0 && done < len(plan) {
				e.Obs.Emit(obs.EvCampaignProgress,
					obs.Str("program", spec.Name),
					obs.Int("done", int64(done)),
					obs.Int("total", int64(len(plan))))
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	out.aggregate()
	if e.Obs.Enabled() {
		m := e.Obs.Metrics()
		m.Help("hauberk_injection_outcomes_total",
			"fault-injection outcomes (Section VIII five-way classification)")
		for o := Outcome(0); o < NumOutcomes; o++ {
			if n := out.All[o]; n > 0 {
				m.Counter("hauberk_injection_outcomes_total",
					"program", spec.Name, "outcome", o.String()).Add(int64(n))
			}
		}
		sp.End(
			obs.Str("program", spec.Name),
			obs.Int("injections", int64(len(plan))),
			obs.Int("failures", int64(out.All[OutcomeFailure])),
			obs.Int("undetected", int64(out.All[OutcomeUndetected])),
			obs.Float("coverage", out.All.Coverage()))
	}
	return out, nil
}
