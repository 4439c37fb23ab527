package gpu

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"hauberk/internal/kir"
	"hauberk/internal/obs"
	"hauberk/internal/obs/promtext"
)

// forceBudget overrides the process-wide launch budget for one test (the
// container the suite runs on may have a single CPU, where the default
// budget is zero and every launch would fall back to serial).
func forceBudget(t *testing.T, n int) {
	t.Helper()
	old := LaunchBudget()
	SetLaunchBudget(n)
	t.Cleanup(func() { SetLaunchBudget(old) })
}

// launchModes returns the hauberk_launch_modes_total counts recorded in
// tel, keyed by mode.
func launchModes(t *testing.T, tel *obs.Telemetry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := tel.Metrics().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := promtext.Parse(&buf)
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	modes := map[string]float64{}
	if f := exp.Family("hauberk_launch_modes_total"); f != nil {
		for _, s := range f.Samples {
			modes[s.Labels["mode"]] += s.Value
		}
	}
	return modes
}

// runSched executes one crafted kernel, hook-free, under the bytecode
// engine with the given LaunchWorkers and fusion settings and returns every
// observable plus the launch mode the planner actually chose.
func runSched(t *testing.T, tc diffCase, launchWorkers int, nofuse bool) (res *Result, err error, arenas [][]uint32, mode string) {
	t.Helper()
	b := kir.NewBuilder("sched")
	tc.build(b)
	k := b.Kernel()
	cfg := tc.cfg
	cfg.Interpreter = InterpreterBytecode
	cfg.LaunchWorkers = launchWorkers
	cfg.DisableFusion = nofuse
	d := New(cfg)
	if tc.setup == nil {
		tc.setup = defaultDiffSetup
	}
	args := tc.setup(d, k)
	tel := obs.New(nil)
	res, err = d.Launch(k, LaunchSpec{Grid: tc.grid, Block: tc.block, Args: args, Obs: tel})
	for _, buf := range d.Buffers() {
		arenas = append(arenas, d.ReadWords(buf))
	}
	modes := launchModes(t, tel)
	if len(modes) != 1 {
		t.Fatalf("one launch recorded launch modes %v, want exactly one", modes)
	}
	for m := range modes {
		mode = m
	}
	return res, err, arenas, mode
}

// diffSchedCase runs tc serial and parallel, fused and unfused, and requires
// bit-identical results against the serial fused baseline. Every parallel
// leg must really have run mode "parallel", so the suite can never decay
// into comparing serial against serial. compareArenas is disabled for crash
// cases: a parallel launch may have speculatively executed blocks after the
// failing one, so post-crash device memory is explicitly indeterminate
// (DESIGN.md §5); everything else — error classification and position,
// cycle bits, memory traffic — must still match exactly.
func diffSchedCase(t *testing.T, tc diffCase, launchWorkers int, compareArenas bool) {
	t.Helper()
	sRes, sErr, sArenas, sMode := runSched(t, tc, 1, false)
	if sMode != "serial-config" {
		t.Fatalf("serial baseline ran mode %q, want serial-config", sMode)
	}
	variants := []struct {
		name    string
		workers int
		nofuse  bool
	}{
		{"parallel-fused", launchWorkers, false},
		{"serial-unfused", 1, true},
		{"parallel-unfused", launchWorkers, true},
	}
	for _, v := range variants {
		pRes, pErr, pArenas, pMode := runSched(t, tc, v.workers, v.nofuse)
		want := "parallel"
		if v.workers == 1 {
			want = "serial-config"
		}
		if pMode != want {
			t.Fatalf("%s ran mode %q, want %s", v.name, pMode, want)
		}

		if fmt.Sprint(sErr) != fmt.Sprint(pErr) {
			t.Fatalf("error mismatch:\n  serial-fused: %v\n  %s: %v", sErr, v.name, pErr)
		}
		if sErr != nil && reflect.TypeOf(sErr) != reflect.TypeOf(pErr) {
			t.Fatalf("error type mismatch: serial-fused %T, %s %T", sErr, v.name, pErr)
		}
		if math.Float64bits(sRes.Cycles) != math.Float64bits(pRes.Cycles) ||
			math.Float64bits(sRes.LoopCycles) != math.Float64bits(pRes.LoopCycles) ||
			math.Float64bits(sRes.NonLoopCycles) != math.Float64bits(pRes.NonLoopCycles) {
			t.Fatalf("cycles not bit-identical:\n  serial-fused: %+v\n  %s: %+v", sRes, v.name, pRes)
		}
		if sRes.Loads != pRes.Loads || sRes.Stores != pRes.Stores ||
			sRes.MaxLive != pRes.MaxLive || sRes.Spill != pRes.Spill || sRes.Threads != pRes.Threads {
			t.Fatalf("result metadata mismatch:\n  serial-fused: %+v\n  %s: %+v", sRes, v.name, pRes)
		}
		if compareArenas && !reflect.DeepEqual(sArenas, pArenas) {
			t.Fatalf("buffer contents differ between serial-fused and %s runs", v.name)
		}
	}
}

// bigDiffSetup sizes every pointer buffer for one word per launched thread.
func bigDiffSetup(grid, block int) func(d *Device, k *kir.Kernel) []Arg {
	return func(d *Device, k *kir.Kernel) []Arg {
		args := make([]Arg, len(k.Params))
		for i, p := range k.Params {
			if p.Type == kir.Ptr {
				args[i] = BufArg(d.Alloc(p.Name, p.Elem, grid*block))
			} else {
				args[i] = U32Arg(uint32(i + 1))
			}
		}
		return args
	}
}

func TestParallelSerialIdentical(t *testing.T) {
	forceBudget(t, 8)
	spillCfg := DefaultConfig()
	spillCfg.RegsPerThread = 4
	cases := map[string]diffCase{
		// Loops, FP accumulation, and one store per thread across 512
		// threads: the bread-and-butter shape of the benchmark kernels.
		"compute": {cfg: DefaultConfig(), grid: 8, block: 64,
			setup: bigDiffSetup(8, 64),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.F32)
				acc := b.Def("acc", kir.F(0))
				b.For("i", kir.I(0), kir.I(8), func(i *kir.Var) {
					b.Accum(acc, kir.XMul(kir.ToF32(kir.XAdd(kir.GlobalID(), kir.V(i))), kir.F(1.5)))
				})
				b.Store(out, kir.GlobalID(), kir.XSqrt(kir.XAbs(kir.V(acc))))
			}},
		// 33 threads per block straddles a warp boundary, so the reducer's
		// partial-warp max handling is on the line; blocks also read words
		// written by their own earlier... no — each thread stays in its own
		// word, as the block-independence model requires.
		"warp-straddle": {cfg: DefaultConfig(), grid: 5, block: 33,
			setup: bigDiffSetup(5, 33),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.U32)
				acc := b.Def("acc", kir.U(0))
				b.For("i", kir.I(0), kir.XAdd(kir.TID(), kir.I(1)), func(i *kir.Var) {
					b.Set(acc, kir.XXor(kir.XAdd(kir.V(acc), kir.AsU32(kir.V(i))), kir.U(0x9e3779b9)))
				})
				b.Store(out, kir.GlobalID(), kir.V(acc))
			}},
		// Divergent per-thread trip counts make block runtimes uneven, so
		// shard workers finish blocks far out of serial order.
		"uneven-blocks": {cfg: DefaultConfig(), grid: 16, block: 16,
			setup: bigDiffSetup(16, 16),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.F32)
				acc := b.Def("acc", kir.F(1))
				b.For("i", kir.I(0), kir.XMul(kir.BID(), kir.I(7)), func(i *kir.Var) {
					b.Set(acc, kir.XAdd(kir.XMul(kir.V(acc), kir.F(1.0001)), kir.XSin(kir.ToF32(kir.V(i)))))
				})
				b.Store(out, kir.GlobalID(), kir.V(acc))
			}},
		// Spill charges fold into the per-thread cycle samples.
		"spill": {cfg: spillCfg, grid: 4, block: 32,
			setup: bigDiffSetup(4, 32),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.F32)
				a := b.Def("a", kir.ToF32(kir.GlobalID()))
				c := b.Def("c", kir.XMul(kir.V(a), kir.F(2)))
				d := b.Def("d", kir.XAdd(kir.V(a), kir.V(c)))
				e := b.Def("e", kir.XSub(kir.V(d), kir.V(c)))
				f := b.Def("f", kir.XSqrt(kir.XAbs(kir.V(e))))
				b.Store(out, kir.GlobalID(), kir.XAdd(kir.V(f), kir.XMin(kir.V(d), kir.V(e))))
			}},
		// Every intrinsic kind is compiled in. With no hooks attached
		// the callbacks are skipped, but the RangeCheck and SetSDC
		// charges must still fold into the shard samples exactly.
		// Hook-sequence identity is pinned on the serial engines by
		// TestEnginesDiffSemantics.
		"hook-replay": {cfg: DefaultConfig(), grid: 4, block: 16,
			setup: bigDiffSetup(4, 16),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.F32)
				acc := b.Def("acc", kir.F(0))
				cnt := b.Def("cnt", kir.I(0))
				b.For("i", kir.I(0), kir.I(5), func(i *kir.Var) {
					b.Accum(acc, kir.ToF32(kir.XAdd(kir.V(i), kir.TID())))
					b.Set(cnt, kir.XAdd(kir.V(cnt), kir.I(1)))
				})
				b.Emit(kir.RangeCheck{Detector: 0, Accum: acc, Count: cnt})
				b.Emit(kir.EqualCheck{Detector: 1, Count: cnt, Expected: kir.I(5)})
				b.Emit(kir.ProfileSample{Detector: 0, Accum: acc, Count: cnt})
				b.Emit(kir.CountExec{Site: 2})
				b.Emit(kir.FIProbe{Site: 1, Target: acc, HW: kir.HWFPU})
				b.Emit(kir.SetSDC{Detector: 0, Kind: kir.DetectChecksum})
				b.Store(out, kir.GlobalID(), kir.V(acc))
			}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			// Workers intentionally exceed the grid on some cases: the
			// plan must cap at the grid size.
			diffSchedCase(t, tc, 4, true)
		})
	}
}

// TestParallelCrashFirstInBlockOrder crafts a kernel where later blocks
// crash at earlier threads (so wall-clock order and serial order disagree):
// block b crashes at thread 24-8b. The reported failure must be the serial
// one — block 0, thread 24 — with bit-identical partial cycle accounting.
func TestParallelCrashFirstInBlockOrder(t *testing.T) {
	forceBudget(t, 8)
	tc := diffCase{cfg: DefaultConfig(), grid: 4, block: 32,
		setup: bigDiffSetup(4, 32),
		build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.I32)
			acc := b.Def("acc", kir.F(0))
			b.For("i", kir.I(0), kir.I(4), func(i *kir.Var) {
				b.Accum(acc, kir.ToF32(kir.XAdd(kir.V(i), kir.TID())))
			})
			b.Emit(kir.CountExec{Site: 0})
			div := b.Def("div", kir.XSub(kir.TID(), kir.XSub(kir.I(24), kir.XMul(kir.I(8), kir.BID()))))
			v := b.Def("v", kir.XDiv(kir.I(100), kir.V(div)))
			b.Store(out, kir.GlobalID(), kir.V(v))
		}}
	diffSchedCase(t, tc, 4, false)

	_, err, _, _ := runSched(t, tc, 4, false)
	ce, ok := err.(*CrashError)
	if !ok {
		t.Fatalf("want *CrashError, got %v", err)
	}
	if ce.Block != 0 || ce.Thread != 24 {
		t.Fatalf("first failure = block %d thread %d; want serial-order block 0 thread 24", ce.Block, ce.Thread)
	}
}

// TestParallelHangMiddleBlock hangs one thread of a middle block against a
// tiny step budget; classification and position must match serial.
func TestParallelHangMiddleBlock(t *testing.T) {
	forceBudget(t, 8)
	cfg := DefaultConfig()
	cfg.StepBudget = 300
	tc := diffCase{cfg: cfg, grid: 4, block: 16,
		setup: bigDiffSetup(4, 16),
		build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.I32)
			n := b.Def("n", kir.I(0))
			b.If(kir.XLAnd(kir.XEq(kir.BID(), kir.I(2)), kir.XEq(kir.TID(), kir.I(5))), func() {
				b.Set(n, kir.I(1))
			}, nil)
			b.While(kir.XGt(kir.V(n), kir.I(0)), func() {
				b.Set(n, kir.XAdd(kir.V(n), kir.I(1)))
			})
			b.Store(out, kir.GlobalID(), kir.V(n))
		}}
	diffSchedCase(t, tc, 3, false)

	_, err, _, _ := runSched(t, tc, 3, false)
	he, ok := err.(*HangError)
	if !ok {
		t.Fatalf("want *HangError, got %v", err)
	}
	if he.Block != 2 || he.Thread != 5 {
		t.Fatalf("hang at block %d thread %d; want block 2 thread 5", he.Block, he.Thread)
	}
}

// TestLaunchPlanFallbacks pins the static planner rule: serial when
// LaunchWorkers==1, a memory-fault overlay is set, hooks are attached, the
// grid has one block, or an auto launch is below minParallelThreads;
// otherwise the blocks shard over budget slots, capped by the grid.
func TestLaunchPlanFallbacks(t *testing.T) {
	forceBudget(t, 8)
	cases := []struct {
		name          string
		launchWorkers int
		fault         bool
		hooks         Hooks
		grid, block   int
		budget        int
		wantMode      string
		wantWorkers   int // 0: any count >= 2
	}{
		{name: "auto", grid: 8, block: 64, budget: 8, wantMode: "parallel"},
		{name: "config", launchWorkers: 1, grid: 8, block: 64, budget: 8, wantMode: "serial-config", wantWorkers: 1},
		{name: "fault", fault: true, grid: 8, block: 64, budget: 8, wantMode: "serial-fault", wantWorkers: 1},
		{name: "hooks", hooks: &bcRecHooks{}, grid: 8, block: 64, budget: 8, wantMode: "serial-hooks", wantWorkers: 1},
		{name: "nop-hooks", hooks: NopHooks{}, grid: 8, block: 64, budget: 8, wantMode: "serial-hooks", wantWorkers: 1},
		{name: "hooks-explicit-workers", launchWorkers: 4, hooks: &bcRecHooks{}, grid: 8, block: 64, budget: 8, wantMode: "serial-hooks", wantWorkers: 1},
		{name: "single-block", grid: 1, block: 512, budget: 8, wantMode: "serial-small", wantWorkers: 1},
		{name: "below-cutoff", grid: 4, block: 8, budget: 8, wantMode: "serial-small", wantWorkers: 1},
		// An explicit worker request bypasses the small-launch cutoff.
		{name: "explicit-small", launchWorkers: 4, grid: 4, block: 8, budget: 8, wantMode: "parallel", wantWorkers: 4},
		// Workers are capped by the grid: 2 blocks use at most 2 workers.
		{name: "grid-cap", grid: 2, block: 256, budget: 8, wantMode: "parallel", wantWorkers: 2},
		{name: "budget-cap", launchWorkers: 6, grid: 8, block: 64, budget: 2, wantMode: "parallel", wantWorkers: 3},
		{name: "no-budget", grid: 8, block: 64, budget: 0, wantMode: "serial-budget", wantWorkers: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			SetLaunchBudget(c.budget)
			defer SetLaunchBudget(8)
			cfg := DefaultConfig()
			cfg.LaunchWorkers = c.launchWorkers
			d := New(cfg)
			if c.fault {
				d.SetMemFault(func(_, v uint32) uint32 { return v })
			}
			spec := LaunchSpec{Grid: c.grid, Block: c.block, Hooks: c.hooks}
			workers, extra, mode := d.launchPlan(&spec)
			ReleaseLaunchSlots(extra)
			if mode != c.wantMode {
				t.Fatalf("mode = %q, want %q", mode, c.wantMode)
			}
			if extra != workers-1 {
				t.Fatalf("workers = %d with %d extra slots; want workers = 1 + extra", workers, extra)
			}
			if c.wantWorkers == 0 && workers < 2 || c.wantWorkers != 0 && workers != c.wantWorkers {
				t.Fatalf("workers = %d, want %d (0: at least 2)", workers, c.wantWorkers)
			}
		})
	}
}

// TestMemFaultLaunchStaysDeterministic runs a launch with a memory-fault
// overlay under a parallel-requesting configuration: the engine must fall
// back to serial and reproduce the exact serial observables (the overlay's
// observation order is load order, which only serial execution pins).
func TestMemFaultLaunchStaysDeterministic(t *testing.T) {
	forceBudget(t, 8)
	build := func(b *kir.Builder) {
		out := b.PtrParam("out", kir.U32)
		v := b.Def("v", kir.Load{Base: out, Index: kir.GlobalID()})
		b.Store(out, kir.GlobalID(), kir.XAdd(kir.V(v), kir.U(1)))
	}
	run := func(launchWorkers int) []uint32 {
		b := kir.NewBuilder("memfault")
		build(b)
		k := b.Kernel()
		cfg := DefaultConfig()
		cfg.LaunchWorkers = launchWorkers
		d := New(cfg)
		buf := d.Alloc("out", kir.U32, 512)
		calls := uint32(0)
		d.SetMemFault(func(addr, val uint32) uint32 {
			calls++
			return val ^ (calls & 1) // value depends on the observation order
		})
		if _, err := d.Launch(k, LaunchSpec{Grid: 8, Block: 64, Args: []Arg{BufArg(buf)}}); err != nil {
			t.Fatal(err)
		}
		return d.ReadWords(buf)
	}
	if !reflect.DeepEqual(run(1), run(4)) {
		t.Fatal("mem-fault launch outputs differ with LaunchWorkers set; the fault fallback is broken")
	}
}

// TestLaunchBudgetAccounting exercises the shared slot pool directly.
func TestLaunchBudgetAccounting(t *testing.T) {
	forceBudget(t, 4)
	if got := AcquireLaunchSlots(10); got != 4 {
		t.Fatalf("acquire 10 of 4 = %d, want 4", got)
	}
	if got := AcquireLaunchSlots(1); got != 0 {
		t.Fatalf("acquire on an exhausted budget = %d, want 0", got)
	}
	ReleaseLaunchSlots(3)
	if got := AcquireLaunchSlots(2); got != 2 {
		t.Fatalf("acquire 2 after releasing 3 = %d, want 2", got)
	}
	ReleaseLaunchSlots(2)
	ReleaseLaunchSlots(1)
	if got := AcquireLaunchSlots(0); got != 0 {
		t.Fatalf("acquire 0 = %d, want 0", got)
	}
	SetLaunchBudget(-5)
	if got := LaunchBudget(); got != 0 {
		t.Fatalf("negative budget clamps to 0, got %d", got)
	}
	if got := AcquireLaunchSlots(1); got != 0 {
		t.Fatalf("acquire on a zero budget = %d, want 0", got)
	}
}

// launchAllocKernel builds a loop kernel plus a ready device/spec for
// allocation and benchmark measurements.
func launchAllocKernel(tb testing.TB, grid, block, launchWorkers int) (*Device, *kir.Kernel, LaunchSpec) {
	tb.Helper()
	b := kir.NewBuilder(fmt.Sprintf("alloc%dx%d", grid, block))
	out := b.PtrParam("out", kir.F32)
	acc := b.Def("acc", kir.F(0))
	b.For("i", kir.I(0), kir.I(16), func(i *kir.Var) {
		b.Accum(acc, kir.XMul(kir.ToF32(kir.V(i)), kir.F(0.5)))
	})
	b.Store(out, kir.GlobalID(), kir.V(acc))
	k := b.Kernel()
	cfg := DefaultConfig()
	cfg.LaunchWorkers = launchWorkers
	d := New(cfg)
	buf := d.Alloc("out", kir.F32, grid*block)
	return d, k, LaunchSpec{Grid: grid, Block: block, Args: []Arg{BufArg(buf)}}
}

// TestLaunchAllocsScaleWithWorkersNotThreads pins the sync.Pool satellite:
// steady-state launches allocate O(workers), independent of the thread
// count. Serial launches stay near allocation-free; quadrupling the thread
// count must not move parallel allocations.
func TestLaunchAllocsScaleWithWorkersNotThreads(t *testing.T) {
	forceBudget(t, 8)
	measure := func(grid, block, workers int) float64 {
		d, k, spec := launchAllocKernel(t, grid, block, workers)
		for i := 0; i < 3; i++ { // warm the program cache, reg pool, shard buffers
			if _, err := d.Launch(k, spec); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := d.Launch(k, spec); err != nil {
				t.Fatal(err)
			}
		})
	}

	if serial := measure(8, 64, 1); serial > 4 {
		t.Fatalf("warm serial launch allocates %.1f objects/launch, want <= 4", serial)
	}
	small := measure(8, 32, 4)  // 256 threads
	large := measure(8, 128, 4) // 1024 threads
	if small > 48 || large > 48 {
		t.Fatalf("warm parallel launches allocate %.1f / %.1f objects, want <= 48 (O(workers))", small, large)
	}
	if large > small+8 {
		t.Fatalf("parallel allocations scale with threads: %.1f at 256 threads vs %.1f at 1024", small, large)
	}
}

func benchmarkLaunch(b *testing.B, launchWorkers int) {
	old := LaunchBudget()
	SetLaunchBudget(8)
	defer SetLaunchBudget(old)
	d, k, spec := launchAllocKernel(b, 64, 64, launchWorkers)
	if _, err := d.Launch(k, spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch(k, spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLaunchSerial(b *testing.B)   { benchmarkLaunch(b, 1) }
func BenchmarkLaunchParallel(b *testing.B) { benchmarkLaunch(b, 0) }
