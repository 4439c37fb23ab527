package gpu

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"hauberk/internal/kir"
)

// This file is the parallel SIMT launch engine: it shards a launch's
// blocks across a worker pool and reduces the per-block results in
// deterministic block order, so a parallel launch is bit-identical to the
// serial bytecode engine — same outputs, same float64 cycle accumulation,
// same crash/hang classification.
//
// The design leans on the CUDA execution model the simulator reproduces:
// thread blocks are independent (no inter-block synchronization or
// ordering guarantees), so blocks may execute concurrently as long as
//
//  1. device-memory words are accessed atomically (the arena is shared;
//     well-formed kernels write disjoint words per block, and racing
//     writes are undefined behaviour on real GPUs too — see DESIGN.md §5
//     for the memory-model assumptions),
//  2. cycle accounting is *reduced* in serial (block, thread) order —
//     float64 addition is not associative, so workers record per-thread
//     samples and the reducer re-folds them exactly as the serial loop
//     would, and
//  3. the reported failure is the first failing (block, thread) in serial
//     order, not the first in wall-clock order.
//
// Only hook-free launches shard. Hook callbacks (detectors, profiler,
// fault injector) run on the serial engine, where they are delivered live
// in (block, thread) order; DESIGN.md §10 records the measurement behind
// that rule.

// --- process-wide worker budget -----------------------------------------

// launchSlots is the shared parallelism budget: the total number of
// *extra* worker goroutines (beyond their callers) that may run
// concurrently across campaign workers and launch shards. Sharing one
// budget keeps nested parallelism — a parallel campaign whose injections
// each launch a parallel kernel — from oversubscribing the machine.
var launchSlots struct {
	capacity atomic.Int64
	used     atomic.Int64
}

func init() {
	launchSlots.capacity.Store(int64(runtime.NumCPU() - 1))
}

// SetLaunchBudget sets the process-wide number of extra worker slots
// (negative values clamp to zero). The default is NumCPU-1: one slot per
// core beyond the caller's. Raising it past the core count oversubscribes
// deliberately; tests use it to force parallel execution on small
// machines.
func SetLaunchBudget(n int) {
	if n < 0 {
		n = 0
	}
	launchSlots.capacity.Store(int64(n))
}

// LaunchBudget returns the configured budget (total extra slots, not
// currently free ones).
func LaunchBudget() int { return int(launchSlots.capacity.Load()) }

// AcquireLaunchSlots reserves up to want extra worker slots without
// blocking and returns how many were granted (possibly zero). Callers
// must return them with ReleaseLaunchSlots.
func AcquireLaunchSlots(want int) int {
	if want <= 0 {
		return 0
	}
	for {
		capacity := launchSlots.capacity.Load()
		used := launchSlots.used.Load()
		free := capacity - used
		if free <= 0 {
			return 0
		}
		n := int64(want)
		if n > free {
			n = free
		}
		if launchSlots.used.CompareAndSwap(used, used+n) {
			return int(n)
		}
	}
}

// ReleaseLaunchSlots returns n slots acquired with AcquireLaunchSlots.
func ReleaseLaunchSlots(n int) {
	if n > 0 {
		launchSlots.used.Add(-int64(n))
	}
}

// minParallelThreads is the small-launch cutoff of auto mode: below it the
// fan-out (goroutine handoff, shard buffers, ordered reduction) is not
// worth amortizing and the launch stays serial. An explicit
// Config.LaunchWorkers > 1 bypasses the cutoff.
const minParallelThreads = 256

// launchPlan decides the execution strategy for one validated bytecode
// launch with one static rule. It returns the worker count (1 = serial),
// how many budget slots were acquired (the caller must release them), and
// the mode label for the hauberk_launch_modes_total metric.
func (d *Device) launchPlan(spec *LaunchSpec) (workers, extra int, mode string) {
	switch {
	case d.cfg.LaunchWorkers == 1:
		return 1, 0, "serial-config"
	case d.fault != nil:
		// SetMemFault overlays model value-dependent intermittent faults;
		// their observation order must match serial execution.
		return 1, 0, "serial-fault"
	case spec.Hooks != nil:
		// Hook callbacks are delivered live, in serial order, on the
		// calling goroutine.
		return 1, 0, "serial-hooks"
	case spec.Grid < 2:
		return 1, 0, "serial-small"
	}
	req := d.cfg.LaunchWorkers
	if req <= 0 {
		if spec.Grid*spec.Block < minParallelThreads {
			return 1, 0, "serial-small"
		}
		req = LaunchBudget() + 1
	}
	if req > spec.Grid {
		req = spec.Grid
	}
	if req <= 1 {
		return 1, 0, "serial-budget"
	}
	extra = AcquireLaunchSlots(req - 1)
	if extra == 0 {
		return 1, 0, "serial-budget"
	}
	return 1 + extra, extra, "parallel"
}

// --- per-block shard state ------------------------------------------------

// threadSample is one thread's contribution to the launch accounting, in
// the exact values the serial loop would have accumulated.
type threadSample struct {
	cycles     float64
	loopCycles float64
	loads      int64
	stores     int64
}

// blockRun is the recorded outcome of one block shard.
type blockRun struct {
	samples []threadSample // per-thread, sub-slice of launchSched.samples
	n       int            // threads actually executed (err stops the block)
	err     error
}

// launchSched is the scheduler state of one parallel launch: a flat
// per-thread cycle-sample arena and per-block run records. Instances
// recycle through schedPool so steady-state parallel launches allocate
// O(workers), not O(blocks) — and nothing at all once the pool is warm.
type launchSched struct {
	samples []threadSample
	runs    []blockRun
}

// schedPool recycles launch-scheduler state across launches *and devices*:
// SWIFI campaigns create a fresh Device per injection, so per-device
// buffers would re-allocate every injection. The pool is process-wide and
// the buffers (sample arena, run records) keep their capacity across uses.
var schedPool = sync.Pool{New: func() any { return new(launchSched) }}

// stage sizes the shard buffers for a grid×block launch.
func (sc *launchSched) stage(grid, block int) {
	need := grid * block
	if cap(sc.samples) < need {
		sc.samples = make([]threadSample, need)
	}
	sc.samples = sc.samples[:need]
	if cap(sc.runs) < grid {
		sc.runs = make([]blockRun, grid)
	}
	sc.runs = sc.runs[:grid]
	for b := 0; b < grid; b++ {
		br := &sc.runs[b]
		br.samples = sc.samples[b*block : (b+1)*block]
		br.n = 0
		br.err = nil
	}
}

// launchParallel executes a validated launch by sharding blocks over
// workers goroutines (including the calling one) and reducing the results
// in deterministic block order. Eligibility was established by
// launchPlan: no memory-fault overlay and no hooks.
func (d *Device) launchParallel(k *kir.Kernel, spec LaunchSpec, p *program, workers int) (*Result, error) {
	sc := schedPool.Get().(*launchSched)
	defer schedPool.Put(sc)
	sc.stage(spec.Grid, spec.Block)

	var (
		nextBlk atomic.Int64
		failBlk atomic.Int64 // minimum failing block index; Grid = none
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicEr *PanicError
	)
	failBlk.Store(int64(spec.Grid))

	shard := func() {
		t := bcThread{
			d:      d,
			p:      p,
			spec:   &spec,
			budget: d.cfg.StepBudget,
			shared: true,
		}
		if d.cfg.Mode == ModeGPU {
			t.fastLimit = VirtualWords
		}
		regs := p.getRegs()
		t.regs = *regs
		for {
			blk := int(nextBlk.Add(1)) - 1
			if blk >= spec.Grid || int64(blk) > failBlk.Load() {
				break
			}
			d.runBlockShard(&t, k, blk, &sc.runs[blk], &failBlk)
		}
		p.putRegs(regs)
	}
	// A panic in a shard (an engine bug) must not kill
	// the process — worker goroutines have no caller to recover them — and
	// must not be reduced as a silently half-executed block either. The
	// first panic is kept and the whole launch fails as a classified
	// crash; the zeroed watermark makes the other workers stop claiming.
	shardSafe := func() {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicEr == nil {
					panicEr = &PanicError{Value: r, Stack: string(debug.Stack())}
				}
				panicMu.Unlock()
				failBlk.Store(-1)
			}
		}()
		shard()
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			shardSafe()
		}()
	}
	shardSafe() // the caller is worker 0
	wg.Wait()
	if panicEr != nil {
		return &Result{Threads: spec.Grid * spec.Block}, panicEr
	}

	// Deterministic reduction: re-fold the recorded per-thread samples in
	// the exact order (and with the exact float64 accumulator sequence)
	// of the serial loop in launchBytecode, and stop at the first failing
	// block.
	res := &Result{Threads: spec.Grid * spec.Block, MaxLive: p.maxLive, Spill: p.spillExtra > 0}
	warp := d.cfg.WarpSize
	var sumWarpCycles, sumThreadCycles, sumLoopCycles float64
	for blk := 0; blk < spec.Grid; blk++ {
		br := &sc.runs[blk]
		var warpMax float64
		for tid := 0; tid < br.n; tid++ {
			s := &br.samples[tid]
			sumThreadCycles += s.cycles
			sumLoopCycles += s.loopCycles
			if s.cycles > warpMax {
				warpMax = s.cycles
			}
			if (tid+1)%warp == 0 || tid == spec.Block-1 {
				sumWarpCycles += warpMax
				warpMax = 0
			}
			res.Loads += s.loads
			res.Stores += s.stores
		}
		if br.err != nil {
			finishResult(res, d, sumWarpCycles, sumThreadCycles, sumLoopCycles)
			return res, br.err
		}
	}
	finishResult(res, d, sumWarpCycles, sumThreadCycles, sumLoopCycles)
	return res, nil
}

// runBlockShard executes every thread of one block serially on t,
// recording per-thread samples. On the first
// thread error it lowers the shared minimum-failing-block watermark so
// other workers stop claiming (and abandon) later blocks; blocks at or
// below the watermark always complete, which is what the ordered reducer
// needs.
func (d *Device) runBlockShard(t *bcThread, k *kir.Kernel, blk int, br *blockRun, failBlk *atomic.Int64) {
	spec := t.spec
	p := t.p
	regs := t.regs
	for tid := 0; tid < spec.Block; tid++ {
		if int64(blk) > failBlk.Load() {
			// An earlier block already failed; this block's results can
			// never be reduced. Abandon it mid-flight.
			br.n = 0
			br.err = nil
			return
		}
		clear(regs[:p.nv])
		for i, par := range k.Params {
			if par.Type == kir.Ptr {
				regs[par.ID] = spec.Args[i].Buf.Off
			} else {
				regs[par.ID] = spec.Args[i].Scalar
			}
		}
		t.tc = ThreadCtx{Block: blk, Thread: tid}
		err := t.run()
		br.samples[tid] = threadSample{t.cycles, t.loopCycles, t.loads, t.stores}
		br.n = tid + 1
		if err != nil {
			br.err = err
			for cur := failBlk.Load(); int64(blk) < cur; cur = failBlk.Load() {
				if failBlk.CompareAndSwap(cur, int64(blk)) {
					break
				}
			}
			return
		}
	}
}
