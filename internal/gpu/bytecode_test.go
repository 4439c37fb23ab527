package gpu

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"hauberk/internal/kir"
)

// bcRecHooks records every hook callback for cross-engine comparison.
type bcRecHooks struct {
	NopHooks
	log []string
}

func (h *bcRecHooks) Probe(tc ThreadCtx, site int, v *kir.Var, hw kir.HW, val uint32) (uint32, bool) {
	h.log = append(h.log, fmt.Sprintf("probe b%d t%d site%d %s hw%d %#x", tc.Block, tc.Thread, site, v.Name, hw, val))
	return val, false
}

func (h *bcRecHooks) CountExec(tc ThreadCtx, site int) {
	h.log = append(h.log, fmt.Sprintf("count b%d t%d site%d", tc.Block, tc.Thread, site))
}

func (h *bcRecHooks) RangeCheck(tc ThreadCtx, det int, val float64) {
	h.log = append(h.log, fmt.Sprintf("range b%d t%d det%d %#x", tc.Block, tc.Thread, det, math.Float64bits(val)))
}

func (h *bcRecHooks) EqualCheck(tc ThreadCtx, det int, count, expected int32) {
	h.log = append(h.log, fmt.Sprintf("equal b%d t%d det%d %d %d", tc.Block, tc.Thread, det, count, expected))
}

func (h *bcRecHooks) ProfileSample(tc ThreadCtx, det int, val float64) {
	h.log = append(h.log, fmt.Sprintf("sample b%d t%d det%d %#x", tc.Block, tc.Thread, det, math.Float64bits(val)))
}

func (h *bcRecHooks) SetSDC(tc ThreadCtx, det int, kind kir.DetectKind) {
	h.log = append(h.log, fmt.Sprintf("sdc b%d t%d det%d %v", tc.Block, tc.Thread, det, kind))
}

// diffCase is one crafted cross-engine differential: the kernel runs under
// both engines on identically prepared devices and every observable —
// outputs, bitwise cycle counts, memory traffic, hook sequence, error — must
// match.
type diffCase struct {
	cfg   Config
	grid  int
	block int
	build func(b *kir.Builder)
	// setup allocates buffers and returns launch args; called once per
	// engine on a fresh device. Defaults to a single 64-word F32 buffer
	// bound to every pointer parameter.
	setup func(d *Device, k *kir.Kernel) []Arg
	// fault, when set, installs a memory-fault overlay on every engine's
	// device before the launch.
	fault func(addr, val uint32) uint32
}

func defaultDiffSetup(d *Device, k *kir.Kernel) []Arg {
	args := make([]Arg, len(k.Params))
	for i, p := range k.Params {
		if p.Type == kir.Ptr {
			args[i] = BufArg(d.Alloc(p.Name, p.Elem, 64))
		} else {
			args[i] = U32Arg(uint32(i + 1))
		}
	}
	return args
}

func runDiff(t *testing.T, tc diffCase) (*Result, error) {
	t.Helper()
	b := kir.NewBuilder("diff")
	tc.build(b)
	k := b.Kernel()
	if tc.grid == 0 {
		tc.grid = 1
	}
	if tc.block == 0 {
		tc.block = 1
	}
	if tc.setup == nil {
		tc.setup = defaultDiffSetup
	}

	type run struct {
		res    *Result
		err    error
		arenas [][]uint32
		log    []string
	}
	// Three engines: fused bytecode (the default), the unfused bytecode
	// stream, and the tree-walker oracle. Every observable, including the
	// live hook sequence, must be bit-identical across all three.
	engines := []struct {
		name   string
		interp Interpreter
		nofuse bool
	}{
		{"fused", InterpreterBytecode, false},
		{"unfused", InterpreterBytecode, true},
		{"tree", InterpreterTree, false},
	}
	runs := make([]run, len(engines))
	for i, eng := range engines {
		cfg := tc.cfg
		cfg.Interpreter = eng.interp
		cfg.DisableFusion = eng.nofuse
		d := New(cfg)
		if tc.fault != nil {
			d.SetMemFault(tc.fault)
		}
		args := tc.setup(d, k)
		hooks := &bcRecHooks{}
		res, err := d.Launch(k, LaunchSpec{Grid: tc.grid, Block: tc.block, Args: args, Hooks: hooks})
		var arenas [][]uint32
		for _, buf := range d.Buffers() {
			arenas = append(arenas, d.ReadWords(buf))
		}
		runs[i] = run{res: res, err: err, arenas: arenas, log: hooks.log}
	}

	bc := runs[0]
	for i := 1; i < len(runs); i++ {
		name, other := engines[i].name, runs[i]
		if fmt.Sprint(bc.err) != fmt.Sprint(other.err) {
			t.Fatalf("error mismatch:\n  fused:    %v\n  %s: %v", bc.err, name, other.err)
		}
		if bc.err != nil && reflect.TypeOf(bc.err) != reflect.TypeOf(other.err) {
			t.Fatalf("error type mismatch: fused %T, %s %T", bc.err, name, other.err)
		}
		if math.Float64bits(bc.res.Cycles) != math.Float64bits(other.res.Cycles) ||
			math.Float64bits(bc.res.LoopCycles) != math.Float64bits(other.res.LoopCycles) ||
			math.Float64bits(bc.res.NonLoopCycles) != math.Float64bits(other.res.NonLoopCycles) {
			t.Fatalf("cycles not bit-identical:\n  fused:    %+v\n  %s: %+v", bc.res, name, other.res)
		}
		if bc.res.Loads != other.res.Loads || bc.res.Stores != other.res.Stores ||
			bc.res.MaxLive != other.res.MaxLive || bc.res.Spill != other.res.Spill {
			t.Fatalf("result metadata mismatch:\n  fused:    %+v\n  %s: %+v", bc.res, name, other.res)
		}
		if !reflect.DeepEqual(bc.arenas, other.arenas) {
			t.Fatalf("buffer contents differ between fused and %s runs", name)
		}
		if !reflect.DeepEqual(bc.log, other.log) {
			t.Fatalf("hook sequences differ:\n  fused:    %v\n  %s: %v", bc.log, name, other.log)
		}
	}
	return bc.res, bc.err
}

func TestEnginesDiffCrashPaths(t *testing.T) {
	cases := map[string]diffCase{
		"div-by-zero": {cfg: DefaultConfig(), build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.I32)
			z := b.Def("z", kir.XSub(kir.I(1), kir.I(1)))
			v := b.Def("v", kir.XDiv(kir.I(7), kir.V(z)))
			b.Store(out, kir.I(0), kir.V(v))
		}},
		"rem-by-zero-in-loop": {cfg: DefaultConfig(), build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.I32)
			acc := b.Def("acc", kir.I(0))
			b.For("i", kir.I(0), kir.I(8), func(i *kir.Var) {
				b.Set(acc, kir.XAdd(kir.V(acc), kir.XRem(kir.I(100), kir.XSub(kir.I(4), kir.V(i)))))
			})
			b.Store(out, kir.I(0), kir.V(acc))
		}},
		"crash-in-for-limit": {cfg: DefaultConfig(), build: func(b *kir.Builder) {
			// The limit expression loads from far outside the device
			// address space: the tree-walker charges LoopOver for the head
			// evaluation even though it crashed (the errRegion path).
			out := b.PtrParam("out", kir.I32)
			acc := b.Def("acc", kir.I(0))
			b.For("i", kir.I(0), kir.ToI32(kir.Load{Base: out, Index: kir.I(1 << 27)}), func(i *kir.Var) {
				b.Set(acc, kir.XAdd(kir.V(acc), kir.V(i)))
			})
			b.Store(out, kir.I(0), kir.V(acc))
		}},
		"crash-in-while-cond": {cfg: DefaultConfig(), build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.I32)
			n := b.Def("n", kir.I(3))
			b.While(kir.XGt(kir.XDiv(kir.I(6), kir.V(n)), kir.I(0)), func() {
				b.Set(n, kir.XSub(kir.V(n), kir.I(1)))
			})
			b.Store(out, kir.I(0), kir.V(n))
		}},
		"crash-in-for-step": {cfg: DefaultConfig(), build: func(b *kir.Builder) {
			// Crashing in the step expression must NOT charge LoopOver
			// (unlike the limit expression).
			out := b.PtrParam("out", kir.I32)
			acc := b.Def("acc", kir.I(0))
			b.ForStep("i", kir.I(0), kir.I(8), kir.XDiv(kir.I(1), kir.V(acc)), func(i *kir.Var) {
				b.Set(acc, kir.XSub(kir.V(acc), kir.V(acc)))
			})
			b.Store(out, kir.I(0), kir.V(acc))
		}},
		"oob-store-gpu-silent": {cfg: DefaultConfig(), build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.F32)
			b.Store(out, kir.I(1<<20), kir.F(1)) // inside address space: silent
			b.Store(out, kir.I(0), kir.F(2))
		}},
		"oob-store-gpu-crash": {cfg: DefaultConfig(), build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.F32)
			b.Store(out, kir.I(1<<27), kir.F(1)) // beyond address space
		}},
		"oob-load-cpu-crash": {cfg: func() Config { c := DefaultConfig(); c.Mode = ModeCPU; c.SMs = 1; return c }(),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.F32)
				v := b.Def("v", kir.Load{Base: out, Index: kir.I(5000)})
				b.Store(out, kir.I(0), kir.V(v))
			}},
		"hang-while": {cfg: func() Config { c := DefaultConfig(); c.StepBudget = 100; return c }(),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.I32)
				n := b.Def("n", kir.I(1))
				b.While(kir.XGt(kir.V(n), kir.I(0)), func() {
					b.Set(n, kir.XAdd(kir.V(n), kir.I(1)))
				})
				b.Store(out, kir.I(0), kir.V(n))
			}},
		"hang-for": {cfg: func() Config { c := DefaultConfig(); c.StepBudget = 64; return c }(),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.I32)
				acc := b.Def("acc", kir.I(0))
				b.For("i", kir.I(0), kir.I(1<<30), func(i *kir.Var) {
					b.Set(acc, kir.XAdd(kir.V(acc), kir.V(i)))
				})
				b.Store(out, kir.I(0), kir.V(acc))
			}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			res, err := runDiff(t, tc)
			_ = res
			switch name {
			case "oob-store-gpu-silent":
				if err != nil {
					t.Fatalf("wild in-space store must be silent, got %v", err)
				}
			case "hang-while", "hang-for":
				if _, ok := err.(*HangError); !ok {
					t.Fatalf("want HangError, got %v", err)
				}
			case "div-by-zero", "rem-by-zero-in-loop", "crash-in-for-limit",
				"crash-in-while-cond", "crash-in-for-step",
				"oob-store-gpu-crash", "oob-load-cpu-crash":
				if _, ok := err.(*CrashError); !ok {
					t.Fatalf("want CrashError, got %v", err)
				}
			}
		})
	}
}

func TestEnginesDiffSemantics(t *testing.T) {
	spillCfg := DefaultConfig()
	spillCfg.RegsPerThread = 4
	cases := map[string]diffCase{
		"spill-charges": {cfg: spillCfg, grid: 2, block: 7, build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.F32)
			a := b.Def("a", kir.ToF32(kir.GlobalID()))
			c := b.Def("c", kir.XMul(kir.V(a), kir.F(2)))
			d := b.Def("d", kir.XAdd(kir.V(a), kir.V(c)))
			e := b.Def("e", kir.XSub(kir.V(d), kir.V(c)))
			f := b.Def("f", kir.XSqrt(kir.XAbs(kir.V(e))))
			g := b.Def("g", kir.XMax(kir.V(f), kir.V(a)))
			b.Store(out, kir.GlobalID(), kir.XAdd(kir.V(g), kir.XMin(kir.V(d), kir.V(e))))
		}},
		"mixed-control-flow": {cfg: DefaultConfig(), grid: 2, block: 33, build: func(b *kir.Builder) {
			// 33 threads across warp boundaries; nested For + If/Else +
			// While, unsigned compares, logical ops, conversions.
			out := b.PtrParam("out", kir.U32)
			acc := b.Def("acc", kir.U(0))
			b.For("i", kir.I(0), kir.I(6), func(i *kir.Var) {
				b.For("j", kir.I(0), kir.XAdd(kir.V(i), kir.I(1)), func(j *kir.Var) {
					b.If(kir.XLAnd(kir.XGe(kir.V(j), kir.I(1)), kir.XNe(kir.V(i), kir.I(3))), func() {
						b.Set(acc, kir.XAdd(kir.V(acc), kir.AsU32(kir.XMul(kir.V(i), kir.V(j)))))
					}, func() {
						b.Set(acc, kir.XXor(kir.V(acc), kir.U(0x9e3779b9)))
					})
				})
			})
			n := b.Def("n", kir.I(4))
			b.While(kir.XGt(kir.V(n), kir.I(0)), func() {
				b.Set(acc, kir.XOr(kir.XShl(kir.V(acc), kir.I(1)), kir.XShr(kir.V(acc), kir.I(31))))
				b.Set(n, kir.XSub(kir.V(n), kir.I(1)))
			})
			b.Store(out, kir.GlobalID(), kir.V(acc))
		}},
		"fp-builtins": {cfg: DefaultConfig(), block: 8, build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.F32)
			x := b.Def("x", kir.XAdd(kir.ToF32(kir.TID()), kir.F(0.5)))
			y := b.Def("y", kir.XAdd(kir.XSin(kir.V(x)), kir.XCos(kir.V(x))))
			z := b.Def("z", kir.XAdd(kir.XExp(kir.XNeg(kir.V(x))), kir.XLog(kir.V(x))))
			w := b.Def("w", kir.XAdd(kir.XRSqrt(kir.V(x)), kir.XFloor(kir.V(y))))
			b.Store(out, kir.TID(), kir.XAdd(kir.XAdd(kir.V(y), kir.V(z)), kir.V(w)))
		}},
		"hook-intrinsics": {cfg: DefaultConfig(), block: 3, build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.F32)
			acc := b.Def("acc", kir.F(0))
			cnt := b.Def("cnt", kir.I(0))
			k := b.Kernel()
			b.For("i", kir.I(0), kir.I(5), func(i *kir.Var) {
				b.Accum(acc, kir.ToF32(kir.V(i)))
				b.Set(cnt, kir.XAdd(kir.V(cnt), kir.I(1)))
			})
			b.Emit(kir.RangeCheck{Detector: 0, Accum: acc, Count: cnt})
			b.Emit(kir.RangeCheck{Detector: 1, Accum: cnt}) // nil count
			b.Emit(kir.EqualCheck{Detector: 2, Count: cnt, Expected: kir.I(5)})
			b.Emit(kir.ProfileSample{Detector: 0, Accum: acc, Count: cnt})
			b.Emit(kir.CountExec{Site: 7})
			b.Emit(kir.FIProbe{Site: 3, Target: acc, HW: kir.HWFPU})
			b.If(kir.XGt(kir.V(acc), kir.F(100)), func() {
				b.Emit(kir.SetSDC{Detector: 1, Kind: kir.DetectRange})
			}, nil)
			b.Emit(kir.SetSDC{Detector: 0, Kind: kir.DetectChecksum})
			b.Sync()
			b.Store(out, kir.TID(), kir.V(acc))
			_ = k
		}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := runDiff(t, tc); err != nil {
				t.Fatalf("launch failed: %v", err)
			}
		})
	}
}

func TestProgramCache(t *testing.T) {
	resetProgramCache()
	t.Cleanup(resetProgramCache)

	b := kir.NewBuilder("cached")
	out := b.PtrParam("out", kir.F32)
	b.Store(out, kir.TID(), kir.ToF32(kir.TID()))
	k := b.Kernel()

	d := New(DefaultConfig())
	buf := d.Alloc("out", kir.F32, 64)
	spec := LaunchSpec{Grid: 1, Block: 4, Args: []Arg{BufArg(buf)}}

	for i := 0; i < 3; i++ {
		if _, err := d.Launch(k, spec); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, size := ProgramCacheStats()
	if misses != 1 || hits != 2 || size != 1 {
		t.Fatalf("after 3 launches: hits=%d misses=%d size=%d, want 2/1/1", hits, misses, size)
	}

	// A different register-file size changes the folded spill costs, so it
	// must compile a distinct program.
	cfg := DefaultConfig()
	cfg.RegsPerThread = 1
	d2 := New(cfg)
	buf2 := d2.Alloc("out", kir.F32, 64)
	if _, err := d2.Launch(k, LaunchSpec{Grid: 1, Block: 4, Args: []Arg{BufArg(buf2)}}); err != nil {
		t.Fatal(err)
	}
	hits, misses, size = ProgramCacheStats()
	if misses != 2 || hits != 2 || size != 2 {
		t.Fatalf("after config change: hits=%d misses=%d size=%d, want 2/2/2", hits, misses, size)
	}
}

// TestWarmLaunchDoesNotCompile pins the steady-state behaviour a 10k-launch
// campaign depends on: after the first launch, re-launching the same kernel
// never re-enters the compiler.
func TestWarmLaunchDoesNotCompile(t *testing.T) {
	resetProgramCache()
	t.Cleanup(resetProgramCache)

	b := kir.NewBuilder("warm")
	out := b.PtrParam("out", kir.F32)
	acc := b.Def("acc", kir.F(0))
	b.For("i", kir.I(0), kir.I(16), func(i *kir.Var) {
		b.Accum(acc, kir.ToF32(kir.V(i)))
	})
	b.Store(out, kir.TID(), kir.V(acc))
	k := b.Kernel()

	d := New(DefaultConfig())
	buf := d.Alloc("out", kir.F32, 64)
	spec := LaunchSpec{Grid: 1, Block: 2, Args: []Arg{BufArg(buf)}}
	if _, err := d.Launch(k, spec); err != nil {
		t.Fatal(err)
	}
	_, missesBefore, _ := ProgramCacheStats()
	for i := 0; i < 100; i++ {
		if _, err := d.Launch(k, spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, missesAfter, _ := ProgramCacheStats(); missesAfter != missesBefore {
		t.Fatalf("warm launches recompiled: misses %d -> %d", missesBefore, missesAfter)
	}
}
