package gpu

import (
	"fmt"
	"reflect"
	"testing"

	"hauberk/internal/kir"
)

// rangeEngines are the serial engines a range launch must agree on.
var rangeEngines = []struct {
	name   string
	interp Interpreter
	nofuse bool
}{
	{"fused", InterpreterBytecode, false},
	{"unfused", InterpreterBytecode, true},
	{"tree", InterpreterTree, false},
}

// rangeRun is everything a range differential compares: device memory,
// the live hook sequence, and the failure with its (Block, Thread).
type rangeRun struct {
	arenas [][]uint32
	log    []string
	err    string
	pos    [2]int // failing (Block, Thread); -1 when the launch succeeded
}

// runRanges launches tc once per range, in order, on one device with one
// hook recorder, stopping at the first failure — the way fault-local
// replay continues a launch. A nil ranges slice is one full launch.
func runRanges(t *testing.T, tc diffCase, interp Interpreter, nofuse bool, ranges []ThreadRange) rangeRun {
	t.Helper()
	b := kir.NewBuilder("range")
	tc.build(b)
	k := b.Kernel()
	cfg := tc.cfg
	cfg.Interpreter = interp
	cfg.DisableFusion = nofuse
	cfg.LaunchWorkers = 1
	d := New(cfg)
	setup := tc.setup
	if setup == nil {
		setup = defaultDiffSetup
	}
	args := setup(d, k)
	hooks := &bcRecHooks{}
	if ranges == nil {
		ranges = []ThreadRange{{}}
	}
	run := rangeRun{pos: [2]int{-1, -1}}
	for _, r := range ranges {
		_, err := d.Launch(k, LaunchSpec{Grid: tc.grid, Block: tc.block, Args: args, Hooks: hooks, Threads: r})
		if err == nil {
			continue
		}
		run.err = fmt.Sprintf("%T %v", err, err)
		switch e := err.(type) {
		case *CrashError:
			run.pos = [2]int{e.Block, e.Thread}
		case *HangError:
			run.pos = [2]int{e.Block, e.Thread}
		default:
			t.Fatalf("range %v: unexpected launch error %v", r, err)
		}
		break
	}
	for _, buf := range d.Buffers() {
		run.arenas = append(run.arenas, d.ReadWords(buf))
	}
	run.log = hooks.log
	return run
}

// splitAt turns ascending interior cut points into consecutive ranges
// covering [0, n).
func splitAt(n int, cuts ...int) []ThreadRange {
	var out []ThreadRange
	lo := 0
	for _, c := range cuts {
		if c > lo && c < n {
			out = append(out, ThreadRange{Lo: lo, Hi: c})
			lo = c
		}
	}
	return append(out, ThreadRange{Lo: lo, Hi: n})
}

// rangeSplits are the partitions every case is checked under: at block
// boundaries, mid-block (which also straddles warps), one thread at a
// time, and an uneven mix.
func rangeSplits(grid, block int) map[string][]ThreadRange {
	n := grid * block
	var blocks, mid, single []int
	for b := 1; b < grid; b++ {
		blocks = append(blocks, b*block)
	}
	for b := 0; b < grid; b++ {
		mid = append(mid, b*block+block/2+1)
	}
	for g := 1; g < n; g++ {
		single = append(single, g)
	}
	return map[string][]ThreadRange{
		"blocks":    splitAt(n, blocks...),
		"mid-block": splitAt(n, mid...),
		"single":    splitAt(n, single...),
		"uneven":    splitAt(n, 1, block-1, block+3, n/2, n-2),
	}
}

// crossThreadCase has every thread read the word its predecessor wrote,
// so a range launch only matches when it continues from the state the
// earlier ranges left.
func crossThreadCase() diffCase {
	return diffCase{cfg: DefaultConfig(), grid: 3, block: 20,
		setup: bigDiffSetup(3, 21),
		build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.I32)
			prev := b.Def("prev", kir.Ld(out, kir.GlobalID()))
			b.Emit(kir.FIProbe{Site: 0, Target: prev, HW: kir.HWALU})
			b.Store(out, kir.XAdd(kir.GlobalID(), kir.I(1)), kir.XAdd(kir.XMul(kir.V(prev), kir.I(3)), kir.GlobalID()))
		}}
}

// TestRangeLaunchConcatenation holds a full serial launch equal to the
// concatenation of its range launches — outputs, hook call sequence and
// crash/hang (Block, Thread) attribution — on the fused, unfused and
// tree engines, for the adversarial kernels plus crash, hang and
// cross-thread cases.
func TestRangeLaunchConcatenation(t *testing.T) {
	cases := adversarialCases()
	cases["crash-order"] = crashOrderCase()
	cases["hang-middle"] = hangMiddleCase()
	cases["cross-thread"] = crossThreadCase()
	for name, tc := range cases {
		for _, eng := range rangeEngines {
			t.Run(name+"/"+eng.name, func(t *testing.T) {
				full := runRanges(t, tc, eng.interp, eng.nofuse, nil)
				switch name {
				case "crash-order":
					if full.pos != [2]int{0, 24} {
						t.Fatalf("full launch failed at %v, want block 0 thread 24", full.pos)
					}
				case "hang-middle":
					if full.pos != [2]int{2, 5} {
						t.Fatalf("full launch hung at %v, want block 2 thread 5", full.pos)
					}
				}
				for split, ranges := range rangeSplits(tc.grid, tc.block) {
					got := runRanges(t, tc, eng.interp, eng.nofuse, ranges)
					if got.err != full.err || got.pos != full.pos {
						t.Fatalf("%s split: failure %q at %v, full launch %q at %v", split, got.err, got.pos, full.err, full.pos)
					}
					if !reflect.DeepEqual(got.arenas, full.arenas) {
						t.Fatalf("%s split: device memory differs from the full launch", split)
					}
					if !reflect.DeepEqual(got.log, full.log) {
						t.Fatalf("%s split: hook sequence differs from the full launch (%d vs %d calls)", split, len(got.log), len(full.log))
					}
				}
			})
		}
	}
}

// TestRangeLaunchRejectsInvalid pins range validation: an empty,
// reversed, negative or out-of-grid range is a LaunchError on both
// engines, and nothing runs.
func TestRangeLaunchRejectsInvalid(t *testing.T) {
	tc := crossThreadCase()
	b := kir.NewBuilder("range")
	tc.build(b)
	k := b.Kernel()
	for _, eng := range rangeEngines {
		for _, r := range []ThreadRange{{Lo: -1, Hi: 2}, {Lo: 3, Hi: 3}, {Lo: 5, Hi: 2}, {Lo: 0, Hi: 61}, {Lo: 60, Hi: 61}} {
			cfg := tc.cfg
			cfg.Interpreter = eng.interp
			cfg.DisableFusion = eng.nofuse
			d := New(cfg)
			args := tc.setup(d, k)
			hooks := &bcRecHooks{}
			_, err := d.Launch(k, LaunchSpec{Grid: tc.grid, Block: tc.block, Args: args, Hooks: hooks, Threads: r})
			if _, ok := err.(*LaunchError); !ok {
				t.Fatalf("%s: range %+v: want *LaunchError, got %v", eng.name, r, err)
			}
			if len(hooks.log) != 0 {
				t.Fatalf("%s: range %+v ran %d hook calls after being rejected", eng.name, r, len(hooks.log))
			}
		}
	}
}

// TestAccessWatchSeesEveryAccess pins the access watch: it observes the
// same (address, load/store) sequence on all three engines, one call per
// counted load and store, and a watched launch leaves memory and cycle
// accounting bit-identical to an unwatched one.
func TestAccessWatchSeesEveryAccess(t *testing.T) {
	tc := crossThreadCase()
	b := kir.NewBuilder("watch")
	tc.build(b)
	k := b.Kernel()
	var ref []string
	for _, eng := range rangeEngines {
		cfg := tc.cfg
		cfg.Interpreter = eng.interp
		cfg.DisableFusion = eng.nofuse
		run := func(watch bool) (*Result, []uint32, []string) {
			d := New(cfg)
			args := tc.setup(d, k)
			var seen []string
			if watch {
				d.SetAccessWatch(func(addr uint32, store bool) {
					seen = append(seen, fmt.Sprintf("%#x/%v", addr-args[0].Buf.Off, store))
				})
			}
			res, err := d.Launch(k, LaunchSpec{Grid: tc.grid, Block: tc.block, Args: args})
			if err != nil {
				t.Fatalf("%s: %v", eng.name, err)
			}
			return res, d.ReadWords(args[0].Buf), seen
		}
		plainRes, plainMem, _ := run(false)
		res, mem, seen := run(true)
		if int64(len(seen)) != res.Loads+res.Stores {
			t.Fatalf("%s: watch saw %d accesses, launch counted %d loads + %d stores", eng.name, len(seen), res.Loads, res.Stores)
		}
		if !reflect.DeepEqual(mem, plainMem) || *res != *plainRes {
			t.Fatalf("%s: watched launch differs from the unwatched one", eng.name)
		}
		if ref == nil {
			ref = seen
		} else if !reflect.DeepEqual(seen, ref) {
			t.Fatalf("%s: watch sequence differs from the fused engine's", eng.name)
		}
	}
}
