package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/harness"
	"hauberk/internal/obs"
	"hauberk/internal/stats"
	"hauberk/internal/workloads"
)

// figureDriver is one figure driver that runs no injection campaign.
type figureDriver struct {
	name string
	run  func(*harness.Env) (*harness.Table, error)
}

var figureDrivers = []figureDriver{
	{"fig02", harness.Fig02},
	{"fig03", harness.Fig03},
	{"fig04", harness.Fig04},
	{"fig10", harness.Fig10},
	{"fig13", harness.Fig13},
	{"fig15", func(e *harness.Env) (*harness.Table, error) { return harness.Fig15Table(e), nil }},
	{"fig16", harness.Fig16},
}

// fpStudies are the (program, alpha) false-positive studies Fig16 runs.
var fpStudies = []struct {
	program string
	alpha   float64
}{
	{"CP", 1}, {"MRI-FHD", 1}, {"PNS", 1}, {"TPACF", 1},
	{"MRI-FHD", 2}, {"MRI-FHD", 10}, {"MRI-FHD", 100},
}

func figureRefPath(dir, name string) string { return filepath.Join(dir, name+".txt") }

// setupFigures is the figures workload's setup: a fresh environment with
// every program instrumented in the profiler, FT, FI and FI+FT modes.
func setupFigures() (*harness.Env, error) {
	e := harness.NewEnv(harness.QuickScale())
	for _, s := range campaignSpecs() {
		for _, m := range []translate.Mode{translate.ModeProfiler, translate.ModeFT, translate.ModeFI, translate.ModeFIFT} {
			if _, err := e.Instrument(s, translate.NewOptions(m)); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

// runDriver runs one figure driver and checks its rendered table against
// the reference text.
func runDriver(e *harness.Env, d figureDriver, refDir string) (time.Duration, error) {
	t0 := time.Now()
	tbl, err := d.run(e)
	wall := time.Since(t0)
	if err != nil {
		return wall, fmt.Errorf("%s: %w", d.name, err)
	}
	want, err := os.ReadFile(figureRefPath(refDir, d.name))
	if err != nil {
		return wall, fmt.Errorf("%s reference: %w", d.name, err)
	}
	if got := tbl.Render(); got != string(want) {
		return wall, fmt.Errorf("%s: rendered table differs from the reference:\n%s", d.name, got)
	}
	return wall, nil
}

// runFigures measures the figures workload: passes of the seven drivers.
// The drivers fix their own datasets, as the paper's methodology does,
// so the seed does not change this workload's inputs.
func runFigures(o options, res *result) error {
	var setups []float64
	var e *harness.Env
	var err error
	for len(setups) < figuresSetups {
		runtime.GC()
		t0 := time.Now()
		if e, err = setupFigures(); err != nil {
			return err
		}
		setups = append(setups, secondsSince(t0))
	}
	var passes, rates, peaks []float64
	var retained float64
	var ok int64
	start := time.Now()
	for pass := 0; pass == 0 || secondsSince(start) < float64(o.seconds); pass++ {
		mem := startMemSampler()
		wall := 0.0
		passOK := 0
		for _, d := range figureDrivers {
			t, err := runDriver(e, d, o.refDir)
			res.op(1, err == nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: figures check failed:", err)
				continue
			}
			passOK++
			wall += t.Seconds()
		}
		ok += int64(passOK)
		peaks = append(peaks, mem.peakMB())
		if pass == 0 {
			retained = retainedMB()
		}
		if passOK > 0 {
			passes = append(passes, 1000*wall)
			rates = append(rates, float64(passOK)/wall)
		}
	}
	res.set("setup_s", median(setups), "s")
	res.set("ops_per_s", median(rates), "1/s")
	note("= figure drivers per second, median over %d passes (%d drivers)", len(rates), ok)
	setPassLatencies(res, passes, "one pass of the seven figure drivers (figures_wall)")
	setMemory(res, retained, peaks)
	return nil
}

// launchModes are the launch-planner modes the recomposed study's
// launches take; any other mode is printed as a note.
var launchModes = []string{"parallel", "serial-fault"}

// traceFigures is the figures workload's traced pass: every driver under
// a span, then the false-positive study recomposed from public calls
// (auto launch planning, then the LaunchWorkers=1 what-if), each
// checked against FalsePositiveStudy.
func traceFigures(o options, res *result, tr *tracer) error {
	e, err := setupFigures()
	if err != nil {
		return err
	}
	for _, d := range figureDrivers {
		id := tr.begin("harness."+d.name, 0)
		_, err := runDriver(e, d, o.refDir)
		tr.end(id)
		res.op(1, err == nil)
		if err != nil {
			return err
		}
	}

	var want []*harness.FPCurve
	t0 := time.Now()
	for _, s := range fpStudies {
		c, err := e.FalsePositiveStudy(workloads.ByName(s.program), s.alpha)
		if err != nil {
			return err
		}
		want = append(want, c)
	}
	untraced := time.Since(t0)

	tel := obs.New(nil)
	t0 = time.Now()
	if err := fpStudiesTraced(e, want, tr, tel); err != nil {
		return err
	}
	traced := time.Since(t0)

	serialEnv := e.Clone()
	serialEnv.Config.LaunchWorkers = 1
	serialTr := newTracer("figures-serial")
	if err := fpStudiesTraced(serialEnv, want, serialTr, nil); err != nil {
		return fmt.Errorf("LaunchWorkers=1: %w", err)
	}
	note("figures fidelity: %d of %d recomposed FP curves match FalsePositiveStudy (auto and LaunchWorkers=1)", len(want), len(want))

	self := tr.selfMS()
	for _, d := range figureDrivers {
		res.set("figures.harness."+d.name+"_ms", self["harness."+d.name], "ms")
	}
	for _, name := range []string{"gpu.launch_profiler", "gpu.launch_ft", "hrt.merge_profiles", "ranges.finish", "workloads.setup", "gpu.new_device"} {
		res.set("figures."+name+"_ms", self[name], "ms")
	}
	serial := serialTr.selfMS()
	res.set("figures.gpu.launch_profiler_serial_ms", serial["gpu.launch_profiler"], "ms")
	res.set("figures.gpu.launch_ft_serial_ms", serial["gpu.launch_ft"], "ms")

	modes, err := launchModeCounts(tel.Metrics())
	if err != nil {
		return err
	}
	total := 0.0
	for _, v := range modes {
		total += v
	}
	res.set("figures.gpu.launches", total, "count")
	for _, m := range launchModes {
		res.set("figures.gpu.launch_modes."+m, modes[m], "count")
		delete(modes, m)
	}
	for m, v := range modes {
		note("unlisted launch mode %s: %.0f launches", m, v)
	}
	res.set("figures.trace.overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%")
	note("= recomposed traced FP study %.3f s vs FalsePositiveStudy %.3f s", traced.Seconds(), untraced.Seconds())
	return nil
}

// launchModeCounts sums hauberk_launch_modes_total by mode.
func launchModeCounts(reg *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "hauberk_launch_modes_total{") {
			continue
		}
		i := strings.Index(line, `mode="`)
		j := strings.LastIndexByte(line, ' ')
		if i < 0 || j < 0 {
			return nil, fmt.Errorf("unparsed metric line %q", line)
		}
		mode := line[i+len(`mode="`):]
		mode = mode[:strings.IndexByte(mode, '"')]
		v, err := strconv.ParseFloat(line[j+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metric line %q: %w", line, err)
		}
		out[mode] += v
	}
	return out, nil
}

// fpStudiesTraced runs every Fig16 study through fpStudyTraced and
// requires each curve to equal FalsePositiveStudy's.
func fpStudiesTraced(e *harness.Env, want []*harness.FPCurve, tr *tracer, tel *obs.Telemetry) error {
	for i, s := range fpStudies {
		ratio, err := fpStudyTraced(e, workloads.ByName(s.program), s.alpha, tr, tel)
		if err != nil {
			return err
		}
		for j := range ratio {
			if ratio[j] != want[i].Ratio[j] {
				return fmt.Errorf("fidelity: %s alpha %g: recomposed FP ratios %v, FalsePositiveStudy %v", s.program, s.alpha, ratio, want[i].Ratio)
			}
		}
	}
	return nil
}

// fpStudyTraced recomposes FalsePositiveStudy from public calls: the
// same seeded train/test splits, incremental profiler launches merged
// into one accumulator, range finishing at each checkpoint, and FT
// launches on the held-out pair.
func fpStudyTraced(e *harness.Env, spec *workloads.Spec, alpha float64, tr *tracer, tel *obs.Telemetry) ([]float64, error) {
	checkpoints := e.Scale.Fig16Checkpoints
	prof, err := e.Instrument(spec, translate.NewOptions(translate.ModeProfiler))
	if err != nil {
		return nil, err
	}
	ft, err := e.Instrument(spec, translate.NewOptions(translate.ModeFT))
	if err != nil {
		return nil, err
	}
	instance := func(root, ds int) *workloads.Instance {
		var d *gpu.Device
		tr.do("gpu.new_device", root, func() { d = gpu.New(e.Config) })
		var inst *workloads.Instance
		tr.do("workloads.setup", root, func() { inst = spec.Setup(d, workloads.Dataset{Index: ds}) })
		return inst
	}
	total := make([]int, len(checkpoints))
	alarms := make([]int, len(checkpoints))
	for rep := 0; rep < e.Scale.Fig16Repeats; rep++ {
		root := tr.begin("harness.fp_repeat", 0)
		perm := stats.NewRng("fig16", spec.Name, alpha, rep).Perm(spec.NumDatasets)
		test := perm[len(perm)-2:]
		train := perm[:len(perm)-2]
		acc := hrt.NewProfiler(hrt.NewControlBlock(prof.Detectors, nil), len(prof.Sites))
		next := 0
		for ci, n := range checkpoints {
			n = min(n, len(train))
			for ; next < n; next++ {
				inst := instance(root, train[next])
				rt := hrt.NewProfiler(hrt.NewControlBlock(prof.Detectors, nil), len(prof.Sites))
				tr.do("gpu.launch_profiler", root, func() {
					_, err = inst.Device.Launch(prof.Kernel, gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: rt, Obs: tel})
				})
				if err != nil {
					tr.end(root)
					return nil, fmt.Errorf("%s profile dataset %d: %w", spec.Name, train[next], err)
				}
				tr.do("hrt.merge_profiles", root, func() { rt.MergeProfiles(acc) })
			}
			store := ranges.NewStore()
			tr.do("ranges.finish", root, func() { acc.FinishProfiling(store) })
			store.SetAlpha(alpha)
			for _, ti := range test {
				inst := instance(root, ti)
				cb := hrt.NewControlBlock(ft.Detectors, store)
				tr.do("gpu.launch_ft", root, func() {
					_, err = inst.Device.Launch(ft.Kernel, gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: hrt.NewFT(cb), Obs: tel})
				})
				if err != nil {
					tr.end(root)
					return nil, fmt.Errorf("%s eval dataset %d: %w", spec.Name, ti, err)
				}
				total[ci]++
				if cb.SDC() {
					alarms[ci]++
				}
			}
		}
		tr.end(root)
	}
	ratio := make([]float64, len(checkpoints))
	for i := range checkpoints {
		if total[i] > 0 {
			ratio[i] = float64(alarms[i]) / float64(total[i])
		}
	}
	return ratio, nil
}
