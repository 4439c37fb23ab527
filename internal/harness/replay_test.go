package harness

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
	"hauberk/internal/obs"
	"hauberk/internal/obs/promtext"
	"hauberk/internal/swifi"
	"hauberk/internal/workloads"
)

// fullResults re-executes every injection of plan in full under mode (the
// reference fault-local replay must reproduce), over NumCPU goroutines.
func fullResults(t *testing.T, e *Env, spec *workloads.Spec, golden *GoldenRun, store *ranges.Store, mode translate.Mode, plan []Injection) []*InjectionResult {
	t.Helper()
	out := make([]*InjectionResult, len(plan))
	errs := make([]error, len(plan))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = e.RunInjection(spec, golden, store, mode, plan[i])
			}
		}()
	}
	for i := range plan {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s full run %d: %v", spec.Name, i, err)
		}
	}
	return out
}

// sameResult reports whether a replayed result classifies like the full
// run's: the fields the durable record and the figures derive from.
func sameResult(a, b *InjectionResult) bool {
	return a.Outcome == b.Outcome && a.Hang == b.Hang && a.Activated == b.Activated
}

// replayEngines are the engines replay is held exact on.
var replayEngines = []struct {
	name   string
	interp gpu.Interpreter
}{
	{"bytecode", gpu.InterpreterBytecode},
	{"tree", gpu.InterpreterTree},
}

// checkReplayExact replays every injection of plan under mode on both
// engines, each on a clone of e, and requires the full re-execution's
// result for each; it returns how many injections took each
// "path/reason".
func checkReplayExact(t *testing.T, e *Env, spec *workloads.Spec, golden *GoldenRun, store *ranges.Store, mode translate.Mode, plan []Injection, want []*InjectionResult) map[string]int {
	t.Helper()
	paths := map[string]int{}
	for _, eng := range replayEngines {
		e := e.Clone()
		e.Config.Interpreter = eng.interp
		tab, err := e.recordReplay(spec, golden, store, mode)
		if err != nil {
			t.Fatal(err)
		}
		for i, inj := range plan {
			got, path, reason, err := tab.run(e, inj)
			if err != nil {
				t.Fatalf("%s/%s plan index %d: %v", spec.Name, eng.name, i, err)
			}
			if !sameResult(got, want[i]) {
				t.Fatalf("%s dataset %d %s plan index %d (%s, %s/%s): replay %v (hang %v, activated %v), full run %v (hang %v, activated %v)",
					spec.Name, golden.Dataset.Index, eng.name, i, inj.Cmd.Key(), path, reason,
					got.Outcome, got.Hang, got.Activated, want[i].Outcome, want[i].Hang, want[i].Activated)
			}
			paths[path+"/"+reason]++
		}
	}
	return paths
}

// checkQuickPlan holds replay exact on one quick-scale plan of spec on
// dataset ds, planned over bits and run under mode on env e; FI-only
// plans run without a range store, as Figure 1's do. It returns how many
// injections took each "path/reason".
func checkQuickPlan(t *testing.T, e *Env, spec *workloads.Spec, ds workloads.Dataset, mode translate.Mode, bits []int) map[string]int {
	t.Helper()
	golden, err := e.Golden(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := e.Profile(spec, []workloads.Dataset{ds})
	if err != nil {
		t.Fatal(err)
	}
	store := prof.Store
	if mode == translate.ModeFI {
		store = nil
	}
	plan := e.PlanCampaign(spec, prof, bits)
	want := fullResults(t, e, spec, golden, store, mode, plan)
	paths := checkReplayExact(t, e, spec, golden, store, mode, plan, want)
	t.Logf("%-10s dataset %d mode %v: %d injections, paths %v", spec.Name, ds.Index, mode, len(plan), paths)
	return paths
}

// TestReplayExactQuickPlans is the exactness suite: for every plan index
// of all nine quick-scale campaign plans, on dataset 0 and dataset 5,
// fault-local replay on the bytecode and tree engines gives the
// InjectionResult (Outcome, Hang, Activated) a full re-execution gives.
// FI-only rows cover the Figure 1 campaigns: one HPC and one graphics
// program, and the CPU-mode reference program on a page-protected device.
func TestReplayExactQuickPlans(t *testing.T) {
	specs := append(workloads.HPC(), workloads.Graphics()...)
	total := map[string]int{}
	for _, spec := range specs {
		for _, ds := range []workloads.Dataset{{Index: 0}, {Index: 5}} {
			paths := checkQuickPlan(t, NewEnv(QuickScale()), spec, ds, translate.ModeFIFT, QuickScale().BitCounts)
			for k, n := range paths {
				total[k] += n
			}
		}
	}
	// The quick plans reach the isolated, failure and memory-fault paths
	// (no planned fault makes a later thread read a changed word);
	// TestReplayPathsCounted forces the rest.
	for _, k := range []string{"local/isolated", "local/failure", "full/mem-fault"} {
		if total[k] == 0 {
			t.Errorf("no quick-plan injection took %s (paths %v)", k, total)
		}
	}

	cpu := NewEnv(QuickScale())
	cpu.Config.Mode = gpu.ModeCPU
	cpu.Config.SMs = 1
	for _, row := range []struct {
		e    *Env
		spec *workloads.Spec
		bits []int
	}{
		{NewEnv(QuickScale()), workloads.CP(), QuickScale().BitCounts},
		{NewEnv(QuickScale()), workloads.OceanFlow(), []int{1}},
		{cpu, workloads.CPURef(), []int{1}},
	} {
		checkQuickPlan(t, row.e, row.spec, workloads.Dataset{Index: 0}, translate.ModeFI, row.bits)
	}
}

// replayCounts reads hauberk_replay_total from tel by "path/reason".
func replayCounts(t *testing.T, tel *obs.Telemetry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := tel.Metrics().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := promtext.Parse(&buf)
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	out := map[string]float64{}
	if f := exp.Family("hauberk_replay_total"); f != nil {
		for _, s := range f.Samples {
			out[s.Labels["path"]+"/"+s.Labels["reason"]] += s.Value
		}
	}
	return out
}

// siteOf returns the FI site of the named variable in spec's FI&FT build.
func siteOf(t *testing.T, e *Env, spec *workloads.Spec, name string) int {
	t.Helper()
	tr, err := e.Instrument(spec, translate.NewOptions(translate.ModeFIFT))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Sites {
		if s.VarName == name {
			return s.ID
		}
	}
	t.Fatalf("%s has no FI site for %q", spec.Name, name)
	return 0
}

// tinySpec is a 16-thread program over an input and an output buffer of
// 16 words each, allocated one page apart (out.Off = in.Off + 2 pages).
func tinySpec(name string, build func(b *kir.Builder, in, out *kir.Var)) *workloads.Spec {
	const n = 16
	return &workloads.Spec{
		Name:        name,
		NumDatasets: 1,
		Build: func() *kir.Kernel {
			b := kir.NewBuilder(name)
			in := b.PtrParam("in", kir.I32)
			out := b.PtrParam("out", kir.I32)
			build(b, in, out)
			return b.Kernel()
		},
		Setup: func(d *gpu.Device, _ workloads.Dataset) *workloads.Instance {
			in := d.Alloc("in", kir.I32, n)
			out := d.Alloc("out", kir.I32, n)
			vals := make([]int32, n)
			for i := range vals {
				vals[i] = int32(7*i + 3)
			}
			d.WriteI32(in, 0, vals)
			return &workloads.Instance{Grid: 2, Block: n / 2,
				Args:   []gpu.Arg{gpu.BufArg(in), gpu.BufArg(out)},
				Output: out, OutElem: kir.I32, Device: d}
		},
		Requirement: workloads.ExactReq(),
	}
}

// replayCase is one adversarial injection set: replay must match full
// re-execution on both engines, and the named path must be counted.
type replayCase struct {
	name   string
	spec   *workloads.Spec
	golden *GoldenRun // nil: the spec's golden run
	store  *ranges.Store
	plan   []Injection
	want   string // "path/reason" whose counter must be > 0
}

func runReplayCase(t *testing.T, c replayCase) {
	t.Helper()
	for _, eng := range replayEngines {
		e := NewEnv(QuickScale())
		e.Config.Interpreter = eng.interp
		tel := obs.New(nil)
		e.Obs = tel
		golden := c.golden
		if golden == nil {
			var err error
			if golden, err = e.Golden(c.spec, workloads.Dataset{}); err != nil {
				t.Fatal(err)
			}
		}
		ref := NewEnv(QuickScale())
		want := fullResults(t, ref, c.spec, golden, c.store, translate.ModeFIFT, c.plan)
		tab, err := e.recordReplay(c.spec, golden, c.store, translate.ModeFIFT)
		if err != nil {
			t.Fatal(err)
		}
		for i, inj := range c.plan {
			got, err := e.runInjectionGuarded(context.Background(), tab, inj, time.Minute, CampaignOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, want[i]) {
				t.Fatalf("%s/%s injection %s: replay %v (hang %v, activated %v), full run %v (hang %v, activated %v)",
					c.name, eng.name, inj.Cmd.Key(), got.Outcome, got.Hang, got.Activated,
					want[i].Outcome, want[i].Hang, want[i].Activated)
			}
		}
		counts := replayCounts(t, tel)
		if counts[c.want] == 0 {
			t.Fatalf("%s/%s: hauberk_replay_total{%s} is zero (counts %v)", c.name, eng.name, c.want, counts)
		}
		var n float64
		for _, v := range counts {
			n += v
		}
		if int(n) != len(c.plan) {
			t.Fatalf("%s/%s: %v replay increments for %d injections", c.name, eng.name, n, len(c.plan))
		}
	}
}

// TestReplayPathsCounted forces every replay path and reason with an
// adversarial injection set and checks each against full re-execution.
func TestReplayPathsCounted(t *testing.T) {
	e := NewEnv(QuickScale())

	// Thread T stores v+1 at out[T], then again at out[idx] (idx == T);
	// corrupting idx turns the second store into a wild write: into
	// in[j], which thread j > T reads, or into out[j], which thread j
	// writes itself — masked when j > T overwrites it later.
	wild := tinySpec("wild-store", func(b *kir.Builder, in, out *kir.Var) {
		tid := b.Def("tid", kir.GlobalID())
		v := b.Def("v", kir.Ld(in, kir.V(tid)))
		b.Store(out, kir.V(tid), kir.XAdd(kir.V(v), kir.I(1)))
		idx := b.Def("idx", kir.V(tid))
		b.Store(out, kir.V(idx), kir.XAdd(kir.V(v), kir.I(1)))
	})
	idxSite := siteOf(t, e, wild, "idx")
	wildAt := func(T, j int) Injection {
		// out.Off + (T^mask) == in.Off + j, i.e. T^mask == j - 2 pages.
		mask := uint32(T) ^ uint32(int32(j-2*gpu.PageWords))
		return Injection{Cmd: swifi.Command{Site: idxSite, Instance: int64(T), Mask: mask}}
	}
	// A later thread's own output word: written, never read, by thread j.
	overwrite := func(T, j int) Injection {
		return Injection{Cmd: swifi.Command{Site: idxSite, Instance: int64(T), Mask: uint32(T ^ j)}}
	}

	// The clean FI&FT run crashes at thread 5 (the golden output is
	// supplied, since the uninstrumented kernel crashes too).
	crashing := tinySpec("clean-crash", func(b *kir.Builder, in, out *kir.Var) {
		tid := b.Def("tid", kir.GlobalID())
		q := b.Def("q", kir.XDiv(kir.I(100), kir.XSub(kir.V(tid), kir.I(5))))
		b.Store(out, kir.V(tid), kir.V(q))
	})
	qSite := siteOf(t, e, crashing, "q")
	crashGolden := &GoldenRun{Spec: crashing, Output: make([]uint32, 16)}

	cp := workloads.CP()
	cpGolden, err := e.Golden(cp, workloads.Dataset{})
	if err != nil {
		t.Fatal(err)
	}
	cpProf, err := e.Profile(cp, []workloads.Dataset{{}})
	if err != nil {
		t.Fatal(err)
	}
	energy := siteOf(t, e, cp, "energy")
	cpCount := cpProf.ExecCounts[energy]
	perThread := cpCount / 512
	multi := []Injection{
		{Cmd: swifi.Command{Site: energy, Instance: 5*perThread - 2, Count: 4, Mask: 1 << 30}},
		{Cmd: swifi.Command{Site: energy, Instance: 100*perThread + 1, Count: 3*perThread + 1, Mask: 1 << 3}},
		{Cmd: swifi.Command{Site: energy, Instance: 300 * perThread, Persistent: true, Mask: 1 << 12}},
		{Cmd: swifi.Command{Site: energy, Instance: cpCount - 1, Persistent: true, Mask: 1 << 29}},
	}
	beyond := []Injection{
		{Cmd: swifi.Command{Site: energy, Instance: cpCount, Mask: 1 << 30}},
		{Cmd: swifi.Command{Site: energy, Instance: cpCount + 1000, Count: 5, Mask: 1}},
		{Cmd: swifi.Command{Site: energy, Instance: cpCount + 7, Persistent: true, Mask: 1}},
	}

	tp := workloads.TPACF()
	tpProf, err := e.Profile(tp, []workloads.Dataset{{}})
	if err != nil {
		t.Fatal(err)
	}
	tpPlan := e.PlanCampaign(tp, tpProf, e.Scale.BitCounts)[:12]

	cases := []replayCase{
		{name: "wild-store-into-later-input", spec: wild,
			plan: []Injection{wildAt(2, 9), wildAt(0, 15), wildAt(7, 8), wildAt(3, 3), wildAt(12, 5)},
			want: "full/cross-thread"},
		{name: "wild-store-into-later-output", spec: wild,
			plan: []Injection{overwrite(1, 14), overwrite(6, 9), overwrite(9, 6)},
			want: "local/isolated"},
		{name: "multi-instance", spec: cp, golden: cpGolden, store: cpProf.Store, plan: multi, want: "full/multi-instance"},
		{name: "beyond-recorded-count", spec: cp, golden: cpGolden, store: cpProf.Store, plan: beyond, want: "local/inactive"},
		{name: "mem-fault-overlay", spec: tp, store: tpProf.Store, plan: tpPlan, want: "full/mem-fault"},
		{name: "clean-run-crash", spec: crashing, golden: crashGolden,
			plan: []Injection{{Cmd: swifi.Command{Site: qSite, Instance: 2, Mask: 1}}, {Cmd: swifi.Command{Site: qSite, Instance: 9, Mask: 4}}},
			want: "full/clean-failure"},
		{name: "faulted-thread-crash", spec: wild,
			plan: []Injection{{Cmd: swifi.Command{Site: idxSite, Instance: 4, Mask: 1 << 30}}},
			want: "local/failure"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { runReplayCase(t, c) })
	}

	// Activation must be false exactly for the beyond-count commands.
	tab, err := e.recordReplay(cp, cpGolden, cpProf.Store, translate.ModeFIFT)
	if err != nil {
		t.Fatal(err)
	}
	for _, inj := range beyond {
		if r, _, _, _ := tab.run(e, inj); r.Activated {
			t.Fatalf("injection %s beyond the recorded count reported Activated", inj.Cmd.Key())
		}
	}

	// Only a result the watchdog guard accepts is counted: a run the
	// watchdog kills and a cancelled one finish after the guard has
	// returned, and neither counts; a completed guarded run counts once.
	tel := obs.New(nil)
	e.Obs = tel
	slow := multi[1] // a full re-execution, so the runs outlive the guard
	goroutines := runtime.NumGoroutine()
	r, err := e.runInjectionGuarded(context.Background(), tab, slow, time.Nanosecond, CampaignOptions{})
	if err != nil || !r.TimedOut {
		t.Fatalf("guarded run with a 1 ns watchdog: %+v, %v; want a timed-out result", r, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.runInjectionGuarded(ctx, tab, slow, time.Minute, CampaignOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("guarded run on a cancelled context returned %v, want context.Canceled", err)
	}
	for deadline := time.Now().Add(time.Minute); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("abandoned injection runs did not finish")
		}
	}
	if counts := replayCounts(t, tel); len(counts) != 0 {
		t.Fatalf("abandoned runs were counted: %v", counts)
	}
	if _, err := e.runInjectionGuarded(context.Background(), tab, slow, time.Minute, CampaignOptions{}); err != nil {
		t.Fatal(err)
	}
	if counts := replayCounts(t, tel); len(counts) != 1 || counts["full/multi-instance"] != 1 {
		t.Fatalf("one completed guarded run counted as %v, want full/multi-instance once", counts)
	}
}

// TestReplayCleanAlarmsAroundFault tightens CP's energy range so the
// clean run alarms in some threads only, then injects just before the
// first alarming thread (clean alarms only after the fault), between the
// first and last (on both sides) and just after the last (only before):
// the replayed SDC bit must come from the clean alarms exactly as a full
// re-execution's does.
func TestReplayCleanAlarmsAroundFault(t *testing.T) {
	e := NewEnv(QuickScale())
	cp := workloads.CP()
	golden, err := e.Golden(cp, workloads.Dataset{})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := e.Profile(cp, []workloads.Dataset{{}})
	if err != nil {
		t.Fatal(err)
	}
	tight := ranges.NewStore()
	for _, name := range prof.Store.Names() {
		d := prof.Store.Get(name)
		lo, hi := d.Ranges[0].Min, d.Ranges[len(d.Ranges)-1].Max
		tight.Put(&ranges.Detector{Name: d.Name, IsFP: d.IsFP, Alpha: 1,
			Ranges: []ranges.Range{{Min: lo + 0.3*(hi-lo), Max: lo + 0.7*(hi-lo)}}})
	}
	tab, err := e.recordReplay(cp, golden, tight, translate.ModeFIFT)
	if err != nil {
		t.Fatal(err)
	}
	if tab.full != "" || tab.firstAlarm < 1 || tab.lastAlarm-tab.firstAlarm < 4 || tab.lastAlarm > tab.threads-2 {
		t.Fatalf("tightened store did not alarm in a spread of inner clean threads (first %d, last %d of %d, full %q)",
			tab.firstAlarm, tab.lastAlarm, tab.threads, tab.full)
	}
	// Low-bit flips of dx inside the atom loop leave T's own averaged
	// energy inside its clean range status, so their SDC bit comes from
	// the other threads' clean alarms alone; high-bit flips alarm in T.
	dx := siteOf(t, e, cp, "dx")
	pre := tab.prefix[dx*(tab.threads+1) : (dx+1)*(tab.threads+1)]
	var plan []Injection
	for _, T := range []int{tab.firstAlarm - 1, (tab.firstAlarm + tab.lastAlarm) / 2, tab.lastAlarm + 1} {
		if pre[T+1]-pre[T] < 8 {
			t.Fatalf("thread %d probes dx %d times, want the atom loop's", T, pre[T+1]-pre[T])
		}
		for _, mask := range []uint32{1, 1 << 3, 1 << 30} {
			plan = append(plan, Injection{Cmd: swifi.Command{Site: dx, Instance: pre[T] + 5, Mask: mask}})
		}
	}
	want := fullResults(t, e, cp, golden, tight, translate.ModeFIFT, plan)
	detected := 0
	for _, r := range want {
		if r.Outcome == OutcomeDetected || r.Outcome == OutcomeDetectedMasked {
			detected++
		}
	}
	if detected != len(plan) {
		t.Fatalf("only %d of %d full runs raised the SDC bit; the clean alarms must set it for all", detected, len(plan))
	}
	checkReplayExact(t, e, cp, golden, tight, translate.ModeFIFT, plan, want)
	for _, inj := range plan {
		if r, path, reason, _ := tab.run(e, inj); path != replayLocal || reason != reasonIsolated {
			t.Fatalf("%s took %s/%s (outcome %v), want local/isolated", inj.Cmd.Key(), path, reason, r.Outcome)
		}
	}
}
