// Package gpu is a deterministic simulator of a GPGPU device. It stands in
// for the NVIDIA Tesla S1070 cluster of the paper's experiments: kernels in
// the kir IR are interpreted thread by thread over a flat device-memory
// arena, with a cycle cost model that reproduces the *relative* execution
// times the paper's performance figures depend on.
//
// Two properties of real GPUs that drive the paper's findings are modelled
// explicitly:
//
//  1. No fine-grained memory protection (Section II.A cause (a)): device
//     memory is one flat arena; an access outside a buffer but inside the
//     arena silently corrupts other data, and only accesses beyond the
//     arena crash the kernel. In ModeCPU the simulator instead enforces
//     page-granularity permissions, which converts most wild accesses into
//     crashes — reproducing the GPU-vs-CPU SDC gap of Figure 1.
//  2. Register pressure (Section V.A): when a kernel's peak live-variable
//     count exceeds the per-thread register file, register accesses are
//     charged a spill penalty, which is what makes naive duplication and
//     parts of HAUBERK-NL expensive on register-hungry kernels.
package gpu

import (
	"fmt"
	"math"

	"hauberk/internal/kir"
)

// PageWords is the allocation granularity of the device arena in 32-bit
// words (4 KiB pages).
const PageWords = 1024

// VirtualWords is the size of the device's flat address space in words
// (256 Mi words = 1 GiB, matching the evaluated 4-GPU Tesla S1070's 4 GiB
// per-GPU space scaled to our word granularity). In ModeGPU any access
// below this bound is *silent*: reads beyond the physical arena return
// residue garbage and writes there vanish into unallocated space, exactly
// the no-protection behaviour that inflates GPU SDC rates (Section II.A).
// Only addresses at or above VirtualWords fault the kernel.
const VirtualWords = 1 << 26

// Mode selects the protection semantics of the simulated processor.
type Mode uint8

// Execution modes.
const (
	// ModeGPU models a GPU: flat arena, no per-buffer protection.
	ModeGPU Mode = iota
	// ModeCPU models a CPU process: page-granularity access checks
	// (accesses to unmapped guard pages crash, as a memory-protection
	// unit would make them).
	ModeCPU
)

// Interpreter selects the kernel execution engine.
type Interpreter uint8

// Execution engines. Both produce bit-identical results, cycle counts, and
// hook call sequences; the tree-walker survives as the differential-test
// oracle and a debugging fallback.
const (
	// InterpreterBytecode (the default) compiles kernels to a flat
	// register program once per (kernel, cost configuration) and runs a
	// non-recursive dispatch loop (see bytecode.go / compile.go).
	InterpreterBytecode Interpreter = iota
	// InterpreterTree walks the kir tree recursively (exec.go).
	InterpreterTree
)

// Config describes the simulated device.
type Config struct {
	Mode          Mode
	SMs           int // streaming multiprocessors
	WarpSize      int
	RegsPerThread int // register file per thread, in 32-bit registers
	// StepBudget bounds the number of statements one thread may execute;
	// beyond it the launch reports a HangError. It models the guardian's
	// execution-time watchdog.
	StepBudget int
	Costs      CostModel
	// Interpreter picks the execution engine; the zero value is the
	// compiled bytecode engine.
	Interpreter Interpreter
	// LaunchWorkers bounds the per-launch block-shard worker pool of the
	// bytecode engine (see sched.go). Zero means machine-sized: one
	// worker plus as many extra slots as the shared launch budget
	// grants; 1 forces serial execution; values > 1 request that many
	// workers (still capped by the grid size and the shared budget) and
	// bypass the small-launch cutoff. Launches with hooks or a
	// memory-fault overlay always run serially. Parallel and serial
	// launches are bit-identical, so this is purely a throughput knob.
	LaunchWorkers int
	// DisableFusion turns off the post-compile superinstruction fusion
	// pass (fuse.go). Fused and unfused programs are bit-identical in
	// outputs, cycle accounting, and failure attribution; the knob exists
	// for differential tests and the engine benchmarks only.
	DisableFusion bool
}

// DefaultConfig returns a GT200-like device: 30 SMs, 32-wide warps, 20
// registers per thread (a typical per-thread allocation at full
// occupancy).
func DefaultConfig() Config {
	return Config{
		Mode:          ModeGPU,
		SMs:           30,
		WarpSize:      32,
		RegsPerThread: 20,
		StepBudget:    4 << 20,
		Costs:         DefaultCosts(),
	}
}

// Buffer is one device-memory allocation.
type Buffer struct {
	Name string
	Elem kir.Type
	Off  uint32 // word offset of first element in the arena
	Len  int    // length in elements (words)
}

// Device is a simulated GPU (or, in ModeCPU, a protected host process).
// A Device is not safe for concurrent launches; experiments that
// parallelize create one Device per worker.
type Device struct {
	cfg     Config
	arena   []uint32
	mapped  []bool // per page
	buffers []*Buffer
	nextOff uint32

	// Disabled marks the device as taken out of service by the recovery
	// engine (Section VI(ii)(c)); launches fail until re-enabled.
	Disabled bool

	// fault is an optional memory-fault overlay used to emulate
	// intermittent memory faults (Section II, Figure 3); see SetMemFault.
	fault func(addr uint32, val uint32) uint32

	// watch is an optional access observer; see SetAccessWatch.
	watch func(addr uint32, store bool)
}

// New creates a device with the given configuration.
func New(cfg Config) *Device {
	if cfg.SMs <= 0 || cfg.WarpSize <= 0 || cfg.RegsPerThread <= 0 {
		panic("gpu: invalid configuration")
	}
	return &Device{cfg: cfg}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Alloc reserves a buffer of n elem-typed elements. Allocations are page
// aligned with one unmapped guard page between buffers, so that in ModeCPU
// a strayed access is caught at page granularity.
func (d *Device) Alloc(name string, elem kir.Type, n int) *Buffer {
	if n < 0 {
		panic("gpu: negative allocation")
	}
	pages := (n + PageWords - 1) / PageWords
	if pages == 0 {
		pages = 1
	}
	// One guard page before every buffer.
	start := d.nextOff + PageWords
	need := int(start) + pages*PageWords
	for len(d.arena) < need {
		d.arena = append(d.arena, make([]uint32, need-len(d.arena))...)
	}
	for len(d.mapped) < need/PageWords {
		d.mapped = append(d.mapped, false)
	}
	for p := int(start) / PageWords; p < int(start)/PageWords+pages; p++ {
		d.mapped[p] = true
	}
	b := &Buffer{Name: name, Elem: elem, Off: start, Len: n}
	d.buffers = append(d.buffers, b)
	d.nextOff = start + uint32(pages*PageWords)
	return b
}

// Buffers returns all allocations (for memory-footprint audits, Fig. 2).
func (d *Device) Buffers() []*Buffer { return d.buffers }

// ArenaWords returns the current arena size in words.
func (d *Device) ArenaWords() int { return len(d.arena) }

// SetMemFault installs an overlay applied to every loaded word; nil clears
// it. It emulates intermittent faults in a memory module or bus
// (Section II.A, Figure 3b).
func (d *Device) SetMemFault(f func(addr, val uint32) uint32) { d.fault = f }

// HasMemFault reports whether a memory-fault overlay is installed.
func (d *Device) HasMemFault() bool { return d.fault != nil }

// SetAccessWatch installs an observer called before every global-memory
// load (store=false) and store (store=true) of the kernels launched on
// the device, with the accessed word address; nil clears it. The watch
// sees every access the kernel attempts, including one that then crashes
// the kernel, on both engines. A watched launch runs serially, and the
// bytecode engine routes each access through its checked slow path, so
// the watch costs nothing when unset. Fault-local replay uses it to
// record which words each thread reads and writes.
func (d *Device) SetAccessWatch(f func(addr uint32, store bool)) { d.watch = f }

// checkAccess validates an address for the configured mode. It returns a
// non-empty reason when the access must crash the kernel. It is also
// where an installed access watch observes the access.
func (d *Device) checkAccess(addr uint32, store bool) string {
	if d.watch != nil {
		d.watch(addr, store)
	}
	if d.cfg.Mode == ModeCPU {
		if int(addr) >= len(d.arena) {
			return fmt.Sprintf("segmentation fault: address %#x outside process memory", addr)
		}
		if page := int(addr) / PageWords; !d.mapped[page] {
			return fmt.Sprintf("segmentation fault: address %#x in unmapped page", addr)
		}
		return ""
	}
	if addr >= VirtualWords {
		return fmt.Sprintf("address %#x outside device address space", addr)
	}
	return ""
}

// loadWord reads one word with GPU semantics: addresses beyond the
// physical arena but inside the flat address space read unallocated device
// memory, which is zeroed — so a wild read often returns a harmless value,
// one of the masking paths real GPUs exhibit.
func (d *Device) loadWord(addr uint32) uint32 {
	if int(addr) < len(d.arena) {
		return d.arena[addr]
	}
	return 0
}

// storeWord writes one word; writes beyond the physical arena land in
// unallocated device memory and have no observable effect.
func (d *Device) storeWord(addr, val uint32) {
	if int(addr) < len(d.arena) {
		d.arena[addr] = val
	}
}

// --- host <-> device transfer helpers ------------------------------------

// ReadWord returns the word at an arena address with the kernels' GPU
// semantics: an address beyond the physical arena reads zero.
func (d *Device) ReadWord(addr uint32) uint32 { return d.loadWord(addr) }

// WriteWord stores one word at an arena address; a write beyond the
// physical arena has no effect, as for the kernels.
func (d *Device) WriteWord(addr, val uint32) { d.storeWord(addr, val) }

// WriteF32 copies float data into a buffer starting at element off.
func (d *Device) WriteF32(b *Buffer, off int, src []float32) {
	for i, v := range src {
		d.arena[int(b.Off)+off+i] = math.Float32bits(v)
	}
}

// WriteI32 copies integer data into a buffer starting at element off.
func (d *Device) WriteI32(b *Buffer, off int, src []int32) {
	for i, v := range src {
		d.arena[int(b.Off)+off+i] = uint32(v)
	}
}

// ReadF32 copies n floats out of a buffer starting at element off.
func (d *Device) ReadF32(b *Buffer, off, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(d.arena[int(b.Off)+off+i])
	}
	return out
}

// ReadI32 copies n integers out of a buffer starting at element off.
func (d *Device) ReadI32(b *Buffer, off, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.arena[int(b.Off)+off+i])
	}
	return out
}

// ReadWords returns the raw words of a buffer.
func (d *Device) ReadWords(b *Buffer) []uint32 {
	out := make([]uint32, b.Len)
	copy(out, d.arena[b.Off:int(b.Off)+b.Len])
	return out
}

// WriteWords overwrites the raw words of a buffer.
func (d *Device) WriteWords(b *Buffer, src []uint32) {
	copy(d.arena[b.Off:int(b.Off)+b.Len], src)
}

// FlipBits XORs a mask into one element of a buffer. Used by the memory
// fault-injection experiments.
func (d *Device) FlipBits(b *Buffer, idx int, mask uint32) {
	d.arena[int(b.Off)+idx] ^= mask
}

// Zero clears a buffer.
func (d *Device) Zero(b *Buffer) {
	for i := 0; i < b.Len; i++ {
		d.arena[int(b.Off)+i] = 0
	}
}

// Snapshot captures the full arena contents (checkpoint support).
func (d *Device) Snapshot() []uint32 {
	out := make([]uint32, len(d.arena))
	copy(out, d.arena)
	return out
}

// Restore reinstates a snapshot taken on this device.
func (d *Device) Restore(snap []uint32) {
	if len(snap) != len(d.arena) {
		panic("gpu: snapshot size mismatch")
	}
	copy(d.arena, snap)
}
