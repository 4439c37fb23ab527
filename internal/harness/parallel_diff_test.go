package harness

import (
	"bytes"
	"testing"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
	"hauberk/internal/obs"
	"hauberk/internal/obs/promtext"
	"hauberk/internal/workloads"
)

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

// forceLaunchBudget overrides the process-wide launch budget for one test,
// so parallel launches really shard on single-core runners too.
func forceLaunchBudget(t *testing.T, n int) {
	t.Helper()
	old := gpu.LaunchBudget()
	gpu.SetLaunchBudget(n)
	t.Cleanup(func() { gpu.SetLaunchBudget(old) })
}

// runParallelEngine launches k hook-free with the given LaunchWorkers and
// fusion settings, and fails the test unless the planner chose wantMode.
func runParallelEngine(t *testing.T, launchWorkers int, nofuse bool, wantMode string, k *kir.Kernel, spec *workloads.Spec) engineRun {
	t.Helper()
	cfg := gpu.DefaultConfig()
	cfg.Interpreter = gpu.InterpreterBytecode
	cfg.LaunchWorkers = launchWorkers
	cfg.DisableFusion = nofuse
	d := gpu.New(cfg)
	inst := spec.Setup(d, workloads.Dataset{Index: 0})
	tel := obs.New(nil)
	res, err := d.Launch(k, gpu.LaunchSpec{
		Grid:  inst.Grid,
		Block: inst.Block,
		Args:  inst.Args,
		Obs:   tel,
	})
	if modes := launchModes(t, tel); len(modes) != 1 || modes[wantMode] != 1 {
		t.Fatalf("LaunchWorkers=%d launch modes = %v, want one %s launch", launchWorkers, modes, wantMode)
	}
	return engineRun{res: res, err: err, output: inst.ReadOutput()}
}

// TestParallelLaunchBitIdentical is the parallel engine's differential
// oracle: for every evaluation workload (7 HPC + 2 graphics), original and
// under every translator instrumentation mode, the block-sharded parallel
// launch must agree bit-for-bit with the serial bytecode engine on outputs,
// total/loop/non-loop cycle counts, memory traffic, crash/hang
// classification, and the launch metadata. The launches are hook-free —
// only those shard — so instrumented kernels skip their intrinsic
// callbacks but still pay their cycle charges; hook-sequence identity is
// TestEnginesBitIdentical's job.
func TestParallelLaunchBitIdentical(t *testing.T) {
	forceLaunchBudget(t, 8)

	specs := append(workloads.HPC(), workloads.Graphics()...)
	modes := []translate.Mode{
		translate.ModeNone, translate.ModeProfiler, translate.ModeFT,
		translate.ModeFI, translate.ModeFIFT,
	}

	for _, spec := range specs {
		for _, variant := range append([]string{"original"}, modeNames(modes)...) {
			spec, variant := spec, variant
			t.Run(spec.Name+"/"+variant, func(t *testing.T) {
				k := spec.Build()
				if variant != "original" {
					mode := modeByName(t, modes, variant)
					tr, err := translate.Instrument(k, translate.NewOptions(mode))
					if err != nil {
						t.Fatalf("instrument: %v", err)
					}
					k = tr.Kernel
				}

				// LaunchWorkers=4 requests parallel execution explicitly
				// (bypassing the small-launch cutoff: RPES runs 3 blocks of
				// 64), so every workload exercises the sharded path
				// regardless of size. TPACF is the exception: its setup
				// installs a memory-fault overlay (the volatile work-queue
				// model), which pins every launch to the serial engine.
				parMode := "parallel"
				if spec.Name == "TPACF" {
					parMode = "serial-fault"
				}
				par := runParallelEngine(t, 4, false, parMode, k, spec)
				ser := runParallelEngine(t, 1, false, "serial-config", k, spec)
				parUnfused := runParallelEngine(t, 4, true, parMode, k, spec)

				compareRuns(t, par, ser)
				compareRuns(t, par, parUnfused)
			})
		}
	}
}

// TestHookedLaunchesRunSerial pins the launch planner's static rule on
// the runtimes the figure drivers really launch (the Fig. 16
// false-positive study's profiler and FT binaries, and the counting
// wrapper of the performance figures): every hooked launch runs serially
// under the default auto planner, while the hook-free golden launch of the
// same program shards.
func TestHookedLaunchesRunSerial(t *testing.T) {
	forceLaunchBudget(t, 8)
	e := NewEnv(QuickScale())
	spec := workloads.ByName("CP")
	prof, err := e.Instrument(spec, translate.NewOptions(translate.ModeProfiler))
	if err != nil {
		t.Fatal(err)
	}
	ft, err := e.Instrument(spec, translate.NewOptions(translate.ModeFT))
	if err != nil {
		t.Fatal(err)
	}
	launch := func(k *kir.Kernel, hooks gpu.Hooks) map[string]float64 {
		t.Helper()
		d := e.NewDevice()
		inst := spec.Setup(d, workloads.Dataset{Index: 0})
		tel := obs.New(nil)
		if _, err := d.Launch(k, gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: hooks, Obs: tel}); err != nil {
			t.Fatal(err)
		}
		return launchModes(t, tel)
	}

	if modes := launch(spec.Build(), nil); len(modes) != 1 || modes["parallel"] != 1 {
		t.Fatalf("hook-free golden launch modes = %v, want one parallel launch", modes)
	}
	store := ranges.NewStore()
	hooked := []struct {
		name  string
		k     *kir.Kernel
		hooks gpu.Hooks
	}{
		{"profiler", prof.Kernel, hrt.NewProfiler(hrt.NewControlBlock(prof.Detectors, nil), len(prof.Sites))},
		{"ft", ft.Kernel, hrt.NewFT(hrt.NewControlBlock(ft.Detectors, store))},
		{"counting-ft", ft.Kernel, gpu.NewCountingHooks(hrt.NewFT(hrt.NewControlBlock(ft.Detectors, store)))},
	}
	for _, h := range hooked {
		if modes := launch(h.k, h.hooks); len(modes) != 1 || modes["serial-hooks"] != 1 {
			t.Fatalf("%s launch modes = %v, want one serial-hooks launch", h.name, modes)
		}
	}
}
