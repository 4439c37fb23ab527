// Package hrt is the Hauberk runtime: the reproduction's equivalent of the
// user-level C library that the paper's translator links into instrumented
// binaries (Section IV.B). It implements the control block shared between
// the CPU- and GPU-side code, the HauberkCheckRange / HauberkCheckEqual
// checks for loop detectors, profiler collection, and the hook composition
// that lets the fault injector ride along in FI&FT binaries.
package hrt

import (
	"fmt"
	"sync"

	"hauberk/internal/core/ranges"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
	"hauberk/internal/obs"
)

// DetectorMeta describes one loop error detector that the translator
// derived; detector IDs are dense per kernel.
type DetectorMeta struct {
	ID        int
	Name      string // "<kernel>/<protected variable>"
	VarName   string
	IsFP      bool
	SelfAccum bool
	LoopIndex int // region index of the protected loop
}

// Alarm is one deferred error report raised on the GPU side. Per the
// paper's Principle 3, alarms do not stop the kernel; the recovery engine
// inspects them after completion.
type Alarm struct {
	Detector int
	Kind     kir.DetectKind
	Value    float64 // offending averaged value (range alarms)
	Count    int32   // observed count (iteration alarms)
	Expected int32   // expected count (iteration alarms)
}

func (a Alarm) String() string {
	switch a.Kind {
	case kir.DetectRange:
		return fmt.Sprintf("detector %d: value %g outside profiled ranges", a.Detector, a.Value)
	case kir.DetectIter:
		return fmt.Sprintf("detector %d: iteration count %d != expected %d", a.Detector, a.Count, a.Expected)
	default:
		return fmt.Sprintf("detector %d: %s mismatch", a.Detector, a.Kind)
	}
}

// ControlBlock is the object the CPU side allocates, copies to the GPU as a
// kernel parameter, and copies back after the launch (Section V.A). It
// carries detector configuration downward and detection results upward.
type ControlBlock struct {
	Meta      []DetectorMeta
	Detectors []*ranges.Detector // indexed by detector ID; nil = unconfigured

	mu     sync.Mutex
	alarms []Alarm
}

// NewControlBlock builds a control block for the given detector metadata,
// resolving each detector's ranges from the store (nil store or missing
// entries leave detectors unconfigured, which accepts all values).
func NewControlBlock(meta []DetectorMeta, store *ranges.Store) *ControlBlock {
	cb := &ControlBlock{Meta: meta, Detectors: make([]*ranges.Detector, len(meta))}
	if store != nil {
		for i, m := range meta {
			cb.Detectors[i] = store.Get(m.Name)
		}
	}
	return cb
}

// Record appends an alarm (deferred reporting).
func (cb *ControlBlock) Record(a Alarm) {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	cb.alarms = append(cb.alarms, a)
}

// SDC reports whether any alarm was raised.
func (cb *ControlBlock) SDC() bool {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return len(cb.alarms) > 0
}

// Alarms returns a copy of the recorded alarms.
func (cb *ControlBlock) Alarms() []Alarm {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return append([]Alarm(nil), cb.alarms...)
}

// Reset clears recorded alarms for re-execution.
func (cb *ControlBlock) Reset() {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	cb.alarms = cb.alarms[:0]
}

// ProbeFunc is the fault-injection delegate signature (implemented by
// internal/swifi). It mirrors gpu.Hooks.Probe.
type ProbeFunc func(tc gpu.ThreadCtx, site int, v *kir.Var, hw kir.HW, val uint32) (uint32, bool)

// Runtime implements gpu.Hooks for instrumented kernels. One Runtime value
// serves one launch (or a sequence of launches of the same binary); it is
// not safe for concurrent launches.
type Runtime struct {
	CB *ControlBlock

	// Learners collect profiled values per detector (profiler binaries).
	Learners []*ranges.Learner

	// ExecCounts counts dynamic executions per FI site (profiler
	// binaries); the campaign uses them to draw injection times.
	ExecCounts []int64

	// Inject, when non-nil, receives Probe callbacks (FI and FI&FT
	// binaries).
	Inject ProbeFunc

	// Obs, when enabled, journals one detector.alarm event per recorded
	// alarm (detector ID, name, kind, offending value) and counts alarms
	// by kind in the metrics registry. The checks themselves stay silent
	// until a violation, so the instrumented hot path is unaffected.
	Obs *obs.Telemetry
}

var _ gpu.Hooks = (*Runtime)(nil)

// NewFT builds the runtime for an FT binary.
func NewFT(cb *ControlBlock) *Runtime { return &Runtime{CB: cb} }

// NewProfiler builds the runtime for a profiler binary with numSites FI
// sites. Learner configuration mirrors the control block's detector meta.
func NewProfiler(cb *ControlBlock, numSites int) *Runtime {
	r := &Runtime{CB: cb, ExecCounts: make([]int64, numSites)}
	r.Learners = make([]*ranges.Learner, len(cb.Meta))
	for i, m := range cb.Meta {
		r.Learners[i] = ranges.NewLearner(m.Name, m.IsFP)
	}
	return r
}

// Probe forwards to the injection delegate.
func (r *Runtime) Probe(tc gpu.ThreadCtx, site int, v *kir.Var, hw kir.HW, val uint32) (uint32, bool) {
	if r.Inject == nil {
		return val, false
	}
	return r.Inject(tc, site, v, hw, val)
}

// CountExec tallies one execution of an FI site.
func (r *Runtime) CountExec(_ gpu.ThreadCtx, site int) {
	if r.ExecCounts != nil && site < len(r.ExecCounts) {
		r.ExecCounts[site]++
	}
}

// RangeCheck implements HauberkCheckRange: the averaged accumulator value
// must fall inside the detector's profiled (alpha-scaled) ranges. An
// unconfigured detector accepts everything. On violation the SDC bit is
// raised in the control block together with the offending value, which the
// recovery engine uses for on-line range learning.
func (r *Runtime) RangeCheck(_ gpu.ThreadCtx, det int, val float64) {
	if r.CB == nil || det >= len(r.CB.Detectors) {
		return
	}
	d := r.CB.Detectors[det]
	if d == nil || d.Check(val) {
		return
	}
	r.CB.Record(Alarm{Detector: det, Kind: kir.DetectRange, Value: val})
	r.observeAlarm(det, kir.DetectRange, obs.Float("value", val))
}

// EqualCheck implements HauberkCheckEqual for the loop-iteration-count
// invariant.
func (r *Runtime) EqualCheck(_ gpu.ThreadCtx, det int, count, expected int32) {
	if count == expected {
		return
	}
	if r.CB != nil {
		r.CB.Record(Alarm{Detector: det, Kind: kir.DetectIter, Count: count, Expected: expected})
	}
	r.observeAlarm(det, kir.DetectIter,
		obs.Int("count", int64(count)), obs.Int("expected", int64(expected)))
}

// ProfileSample feeds one averaged accumulator value to the detector's
// learner.
func (r *Runtime) ProfileSample(_ gpu.ThreadCtx, det int, val float64) {
	if r.Learners != nil && det < len(r.Learners) && r.Learners[det] != nil {
		r.Learners[det].Add(val)
	}
}

// SetSDC raises a non-loop detector alarm (checksum or duplicate-compare
// mismatch).
func (r *Runtime) SetSDC(_ gpu.ThreadCtx, det int, kind kir.DetectKind) {
	if r.CB != nil {
		r.CB.Record(Alarm{Detector: det, Kind: kind})
	}
	r.observeAlarm(det, kind)
}

// observeAlarm journals one detector.alarm event and bumps the per-kind
// alarm counter. Alarms are rare (they trigger a guardian diagnosis), so
// this path may allocate freely.
func (r *Runtime) observeAlarm(det int, kind kir.DetectKind, extra ...obs.Field) {
	if !r.Obs.Enabled() {
		return
	}
	name := ""
	if r.CB != nil && det < len(r.CB.Meta) {
		name = r.CB.Meta[det].Name
	}
	fields := append([]obs.Field{
		obs.Int("detector", int64(det)),
		obs.Str("name", name),
		obs.Str("kind", kind.String()),
	}, extra...)
	r.Obs.Emit(obs.EvAlarm, fields...)
	m := r.Obs.Metrics()
	m.Help("hauberk_alarms_total", "detector alarms recorded, by detector kind")
	m.Counter("hauberk_alarms_total", "kind", kind.String()).Inc()
}

// FinishProfiling derives detectors from the learners and stores them.
func (r *Runtime) FinishProfiling(store *ranges.Store) {
	for _, l := range r.Learners {
		if l != nil {
			store.Put(l.Finalize())
		}
	}
}

// MergeProfiles merges this runtime's learner samples into another
// profiler runtime (multi-dataset training accumulates into one learner
// set before Finalize).
func (r *Runtime) MergeProfiles(into *Runtime) {
	for i, l := range r.Learners {
		if l == nil || into.Learners[i] == nil {
			continue
		}
		for _, v := range l.Raw() {
			into.Learners[i].Add(v)
		}
	}
}
