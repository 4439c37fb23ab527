package harness

import (
	"fmt"
	"slices"
	"sort"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
	"hauberk/internal/swifi"
	"hauberk/internal/workloads"
)

// This file is fault-local replay (DESIGN.md §13): an injection re-runs
// only the thread its fault lands in, and reproduces exactly the result a
// full re-execution of the grid would classify.
//
// Hooked launches run thread by thread to completion in (block, thread)
// order, and nothing but device memory carries state between threads
// (kir.Sync only charges cycles; the FT runtime's checks are pure). So
// every thread before the faulted thread T replays the clean run bit for
// bit, and every later thread does too unless it reads a word T changed.
// A recording pass over the clean run supplies what the replay needs.

// Replay paths, the path label of hauberk_replay_total.
const (
	// replayLocal ran at most the faulted thread.
	replayLocal = "local"
	// replayFull re-executed the whole grid (RunInjection).
	replayFull = "full"
)

// Replay reasons, the reason label of hauberk_replay_total.
const (
	// reasonIsolated: no later thread reads a word the faulted thread
	// changed, so the clean run's later threads stand.
	reasonIsolated = "isolated"
	// reasonFailure: the faulted thread crashed or hung, which ends the
	// launch where a full run would end it.
	reasonFailure = "failure"
	// reasonInactive: the instance lies beyond the clean run's probe
	// count, so nothing is injected and the clean result stands.
	reasonInactive = "inactive"
	// reasonCrossThread: a later thread reads a word the faulted thread
	// changed.
	reasonCrossThread = "cross-thread"
	// reasonMultiInstance: a Count>1 or Persistent command can inject
	// into later threads too.
	reasonMultiInstance = "multi-instance"
	// reasonMemFault: the device has a memory-fault overlay, whose state
	// spans threads.
	reasonMemFault = "mem-fault"
	// reasonCleanFailure: the clean run itself crashed or hung.
	reasonCleanFailure = "clean-failure"
)

// replayTable is the recording of one clean FI&FT launch of a campaign's
// program and dataset. It is read-only once built, so concurrent
// injections share it, and it lives only for one campaign call: tables
// are sized by the arena and the grid, and preparations are cached.
type replayTable struct {
	spec   *workloads.Spec
	golden *GoldenRun
	rstore *ranges.Store
	mode   translate.Mode
	tr     *translate.Result

	// full, when set, is the reason every injection re-executes the
	// whole grid; nothing else is recorded then.
	full string

	threads int
	sites   int
	// prefix[site*(threads+1)+g] is how many times the site probed in
	// global threads before g in the clean run.
	prefix []int64
	// firstAlarm/lastAlarm are the first and last global threads whose
	// clean run raised a detector alarm (-1: none did).
	firstAlarm, lastAlarm int
	// Thread g stored the distinct arena words
	// logAddr[logStart[g]:logStart[g+1]], leaving logVal in them.
	logStart        []int
	logAddr, logVal []uint32
	// lastReader[w] is the last thread that read arena word w before
	// storing it itself; lastWriter[w] the last that stored it (-1: none).
	lastReader, lastWriter []int32
	// outOff/cleanOut are the output buffer's arena offset and clean
	// final contents; cleanOutcome classifies the clean run.
	outOff       uint32
	cleanOut     []uint32
	cleanOutcome Outcome
}

// recordReplay runs the clean FI&FT launch of a campaign thread by thread
// under an access watch and returns its replay table. A device with a
// memory-fault overlay records nothing and gets a full-path table.
func (e *Env) recordReplay(
	spec *workloads.Spec,
	golden *GoldenRun,
	rstore *ranges.Store,
	mode translate.Mode,
) (*replayTable, error) {
	tr, err := e.Instrument(spec, translate.NewOptions(mode))
	if err != nil {
		return nil, err
	}
	d := e.NewDevice()
	inst := spec.Setup(d, golden.Dataset)
	cb := hrt.NewControlBlock(tr.Detectors, rstore)
	rt := hrt.NewFT(cb)
	tab := &replayTable{spec: spec, golden: golden, rstore: rstore, mode: mode, tr: tr, firstAlarm: -1, lastAlarm: -1}
	launch := gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: rt}
	if d.HasMemFault() {
		tab.full = reasonMemFault
		return tab, nil
	}

	n := inst.Grid * inst.Block
	tab.threads, tab.sites = n, len(tr.Sites)
	tab.prefix = make([]int64, tab.sites*(n+1))
	counts := make([]int64, tab.sites)
	rt.Inject = func(_ gpu.ThreadCtx, site int, _ *kir.Var, _ kir.HW, val uint32) (uint32, bool) {
		if site >= 0 && site < len(counts) {
			counts[site]++
		}
		return val, false
	}
	words := d.ArenaWords()
	tab.lastReader = make([]int32, words)
	tab.lastWriter = make([]int32, words)
	for w := range tab.lastReader {
		tab.lastReader[w], tab.lastWriter[w] = -1, -1
	}
	tab.logStart = make([]int, n+1)
	var g int32
	var stored []uint32 // distinct words thread g stored so far
	d.SetAccessWatch(func(addr uint32, store bool) {
		if int(addr) >= words || tab.lastWriter[addr] == g {
			return // no memory, or the thread's own earlier store
		}
		if store {
			tab.lastWriter[addr] = g
			stored = append(stored, addr)
		} else {
			tab.lastReader[addr] = g
		}
	})
	for ; int(g) < n; g++ {
		launch.Threads = gpu.ThreadRange{Lo: int(g), Hi: int(g) + 1}
		if _, err := d.Launch(tr.Kernel, launch); err != nil {
			return &replayTable{spec: spec, golden: golden, rstore: rstore, mode: mode, tr: tr, full: reasonCleanFailure}, nil
		}
		for _, w := range stored {
			tab.logAddr = append(tab.logAddr, w)
			tab.logVal = append(tab.logVal, d.ReadWord(w))
		}
		stored = stored[:0]
		tab.logStart[g+1] = len(tab.logAddr)
		for s, c := range counts {
			tab.prefix[s*(n+1)+int(g)+1] = c
		}
		if cb.SDC() {
			if tab.firstAlarm < 0 {
				tab.firstAlarm = int(g)
			}
			tab.lastAlarm = int(g)
			cb.Reset()
		}
	}
	d.SetAccessWatch(nil)
	tab.outOff = inst.Output.Off
	tab.cleanOut = inst.ReadOutput()
	tab.cleanOutcome = Classify(false, tab.firstAlarm >= 0, spec.Requirement.Check(golden.Output, tab.cleanOut))
	return tab, nil
}

// run executes one injection through fault-local replay on a fresh
// device, returning the result a full re-execution classifies and the
// path and reason it took.
func (tab *replayTable) run(e *Env, inj Injection) (res *InjectionResult, path, reason string, err error) {
	full := func(why string) (*InjectionResult, string, string, error) {
		res, err := e.RunInjection(tab.spec, tab.golden, tab.rstore, tab.mode, inj)
		if err != nil {
			return nil, "", "", fmt.Errorf("harness: replay %s: %w", inj.Cmd.Key(), err)
		}
		return res, replayFull, why, nil
	}
	if tab.full != "" {
		return full(tab.full)
	}
	cmd := inj.Cmd
	span := max(cmd.Count, 1)
	first := max(cmd.Instance, 0)
	var pre []int64 // the site's clean probe-count prefix over threads
	if cmd.Site >= 0 && cmd.Site < tab.sites {
		pre = tab.prefix[cmd.Site*(tab.threads+1) : (cmd.Site+1)*(tab.threads+1)]
	}
	if pre == nil || first >= pre[tab.threads] || !cmd.Persistent && cmd.Instance+span <= first {
		return &InjectionResult{Injection: inj, Outcome: tab.cleanOutcome}, replayLocal, reasonInactive, nil
	}
	if span > 1 || cmd.Persistent {
		return full(reasonMultiInstance)
	}
	// T is the thread whose probes include the first injected instance.
	T := sort.Search(tab.threads, func(g int) bool { return pre[g+1] > first })

	d := e.NewDevice()
	inst := tab.spec.Setup(d, tab.golden.Dataset)
	for i := 0; i < tab.logStart[T]; i++ {
		d.WriteWord(tab.logAddr[i], tab.logVal[i])
	}
	cb := hrt.NewControlBlock(tab.tr.Detectors, tab.rstore)
	rt := hrt.NewFT(cb)
	injector := &swifi.Injector{}
	injector.ArmAt(cmd, pre[T])
	rt.Inject = injector.Probe
	launch := gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: rt}
	res = &InjectionResult{Injection: inj}

	// Run T alone, watching which words it stores and what each held
	// before T's first store to it.
	words := d.ArenaWords()
	seen := make([]bool, words)
	var stored, before []uint32
	d.SetAccessWatch(func(addr uint32, store bool) {
		if store && int(addr) < words && !seen[addr] {
			seen[addr] = true
			stored = append(stored, addr)
			before = append(before, d.ReadWord(addr))
		}
	})
	launch.Threads = gpu.ThreadRange{Lo: T, Hi: T + 1}
	_, lerr := d.Launch(tab.tr.Kernel, launch)
	d.SetAccessWatch(nil)
	res.Activated = injector.Injected
	if lerr != nil {
		res.Outcome = OutcomeFailure
		_, res.Hang = lerr.(*gpu.HangError)
		return res, replayLocal, reasonFailure, nil
	}

	// changed collects the words whose value after T differs from the
	// clean run's: T's clean stores left logVal; any other word T stored
	// held its pre-T value in the clean run.
	var changed []uint32
	cleanStored := make([]bool, words)
	for i := tab.logStart[T]; i < tab.logStart[T+1]; i++ {
		w := tab.logAddr[i]
		cleanStored[w] = true
		if d.ReadWord(w) != tab.logVal[i] {
			changed = append(changed, w)
		}
	}
	for i, w := range stored {
		if !cleanStored[w] && d.ReadWord(w) != before[i] {
			changed = append(changed, w)
		}
	}
	for _, w := range changed {
		if int(tab.lastReader[w]) > T {
			return full(reasonCrossThread)
		}
	}
	// No later thread reads a changed word, so every later thread runs
	// as in the clean run: the output is the clean one, with T's changes
	// kept wherever no later thread overwrites them.
	out := slices.Clone(tab.cleanOut)
	for _, w := range changed {
		if i := int(w) - int(tab.outOff); i >= 0 && i < len(out) && int(tab.lastWriter[w]) <= T {
			out[i] = d.ReadWord(w)
		}
	}
	sdc := tab.firstAlarm >= 0 && tab.firstAlarm < T || cb.SDC() || tab.lastAlarm > T
	res.Outcome = Classify(false, sdc, tab.spec.Requirement.Check(tab.golden.Output, out))
	return res, replayLocal, reasonIsolated, nil
}

// countReplay adds one injection to hauberk_replay_total.
func (e *Env) countReplay(path, reason string) {
	if !e.Obs.Enabled() || path == "" {
		return
	}
	m := e.Obs.Metrics()
	m.Help("hauberk_replay_total",
		"injections by fault-local replay path (local: the faulted thread only; full: the whole grid) and the reason for it")
	m.Counter("hauberk_replay_total", "path", path, "reason", reason).Inc()
}
