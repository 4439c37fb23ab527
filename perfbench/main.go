// Command perfbench is the repository benchmark: it drives three
// workloads (campaign, figures, service) through the public entry points
// of the Hauberk reproduction, checks every output against reference
// results, and prints end-to-end metrics (untraced run) or per-layer
// metrics (traced run) as one JSON object on the last line of standard
// output. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
//
// README.md in this directory documents the workloads, the metrics and
// the map from layer metrics to end-to-end metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"hauberk/internal/gpu"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string
	refDir   string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

// set records a metric and prints it as a human-readable line.
func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("  %-44s %14.4f %s\n", name, v, unit)
}

// note prints a human-readable line that is not a JSON metric.
func note(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) }

// op counts operations: an injection, a figure driver or a submission.
// A failed operation is an error, a refusal or a failed output check.
func (r *result) op(n int64, ok bool) {
	r.Attempted += n
	if !ok {
		r.Failed += n
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var buildDir string
	var record bool
	flag.StringVar(&o.workload, "workload", "", "campaign, figures or service")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; selects the dataset indices the programs receive")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
	flag.StringVar(&buildDir, "build-dir", ".bench_build", "directory for scratch stores")
	flag.StringVar(&o.refDir, "ref-dir", "perfbench/reference", "directory holding the reference outputs")
	flag.BoolVar(&record, "record", false, "regenerate the reference outputs in -ref-dir and exit")
	flag.Parse()
	if o.seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("bad flags: -seconds %d -trace %d", o.seconds, *trace)
	}
	o.trace = *trace == 1

	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	o.workDir = work
	defer os.RemoveAll(work)

	if record {
		return recordReferences(o)
	}
	res := newResult()
	if o.trace {
		err = runTraced(o, res)
	} else {
		err = runUntraced(o, res)
	}
	if err != nil {
		return err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runUntraced measures one workload's end-to-end metrics.
func runUntraced(o options, res *result) error {
	fmt.Printf("workload %s seed %d (untraced, %d s, %d CPUs)\n", o.workload, o.seed, o.seconds, runtime.NumCPU())
	var err error
	switch o.workload {
	case "campaign":
		err = runCampaign(o, res)
	case "figures":
		err = runFigures(o, res)
	case "service":
		err = runService(o, res)
	default:
		err = fmt.Errorf("unknown workload %q (want campaign, figures or service)", o.workload)
	}
	if err != nil {
		return err
	}
	note("failed_frac %.6f (%d of %d operations)", float64(res.Failed)/math.Max(1, float64(res.Attempted)), res.Failed, res.Attempted)
	return nil
}

// runTraced runs the traced pass of every workload, so each traced run
// reports the complete per-layer metric set whatever -workload names.
func runTraced(o options, res *result) error {
	if o.workload != "campaign" && o.workload != "figures" && o.workload != "service" {
		return fmt.Errorf("unknown workload %q (want campaign, figures or service)", o.workload)
	}
	fmt.Printf("traced run, seed %d (%d CPUs): campaign, figures and service layers\n", o.seed, runtime.NumCPU())
	sections := []struct {
		name string
		fn   func(options, *result, *tracer) error
	}{
		{"campaign", traceCampaign},
		{"figures", traceFigures},
		{"service", traceService},
	}
	var spans []span
	for _, s := range sections {
		tr := newTracer(s.name)
		if err := s.fn(o, res, tr); err != nil {
			return fmt.Errorf("traced %s: %w", s.name, err)
		}
		spans = append(spans, tr.spans...)
	}
	return writeSpans(filepath.Join(filepath.Dir(o.workDir), "trace.jsonl"), spans)
}

// --- statistics ---------------------------------------------------------------

// median is 0 without samples (every operation failed), so the result
// stays encodable and is marked incorrect by its failure count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that has at least ten samples
// beyond it, with that percentile and the sample count. With fewer than
// 21 samples that percentile would not exceed the median, so the tail is
// the maximum (reported as percentile 100).
func tail(xs []float64) (v, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 21 {
		return s[n-1], 100, n
	}
	k := n - 11
	return s[k], 100 * float64(k+1) / float64(n), n
}

// setPassLatencies reports op_p50_ms and op_tail_ms for workloads whose
// user runs one pass as a job (the nine campaigns, the seven figures).
func setPassLatencies(res *result, passes []float64, what string) {
	res.set("op_p50_ms", median(passes), "ms")
	t, pct, n := tail(passes)
	res.set("op_tail_ms", t, "ms")
	note("= latency of %s; tail is p%.1f of %d passes", what, pct, n)
}

// Setups per run. Each workload sets up the same number of times on
// every run (about two seconds of setup for campaign and service), so
// setup_s is always the median of as many samples, and the compiled
// programs the earlier setups leave in the process-wide program cache
// are the same in every run (see retainedMB).
const (
	campaignSetups = 7
	figuresSetups  = 25
	serviceSetups  = 4
)

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }

// memSampler tracks the peak resident memory of one measured pass: the
// memory the Go runtime has mapped minus what it returned to the OS,
// sampled every 5 ms. The program is pure Go, so this is its resident
// set less code and static data. The peak is printed, not gated: in
// figures it depends on how many hook events the parallel launches
// buffer, which follows the auto launch planner's timing-calibrated
// choices, and over 14 passes of identical work on a 2-vCPU host it
// ranged from 202 to 319 MB.
type memSampler struct {
	peak uint64
	stop chan struct{}
	done chan struct{}
}

// startMemSampler collects the garbage of what ran before, returns it to
// the OS and starts sampling.
func startMemSampler() *memSampler {
	debug.FreeOSMemory()
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			m.peak = max(m.peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// peakMB stops the sampler and returns the peak in MiB.
func (m *memSampler) peakMB() float64 {
	close(m.stop)
	<-m.done
	return mib(m.peak)
}

// retainedMB returns the live heap, in MiB, once further collections
// free nothing more: the memory a process keeps between jobs, such as
// the environment's instrumented kernels, golden outputs, prepared plans
// and the compiled programs in the process-wide program cache. One
// collection is not enough: sync.Pool keeps its contents through the
// first, and an object with a finalizer is freed only by the collection
// after its finalizer ran. It is taken after the first pass, because
// the program cache keys compiled programs by kernel and keeps those of
// every earlier setup that launched kernels (about 0.2 MB each in
// campaign) and of every earlier figures pass, until its cap drops them
// all: the value after a fixed number of setups and one pass repeats.
func retainedMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	live := uint64(math.MaxUint64)
	for i := 0; i < 8; i++ {
		runtime.GC()
		metrics.Read(s)
		if s[0].Value.Uint64() >= live {
			break
		}
		live = s[0].Value.Uint64()
		time.Sleep(time.Millisecond) // let the finalizers this collection queued run
	}
	return mib(live)
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// setMemory reports retained_heap_mb, the memory retained after the
// first pass, and prints max_rss_mb, the highest pass peak, which is not
// a JSON metric (see memSampler).
func setMemory(res *result, retained float64, peaks []float64) {
	_, _, programs := gpu.ProgramCacheStats()
	res.set("retained_heap_mb", retained, "MB")
	note("= live heap after the first pass; %d compiled programs cached at the end", programs)
	note("max_rss_mb %.4f MB: highest peak resident memory of %d passes (median %.4f MB); printed, not gated", slices.Max(peaks), len(peaks), median(peaks))
}

// datasetFor maps the workload seed to a dataset index in [0, n) for one
// program, so each program receives a seed-dependent input.
func datasetFor(seed int64, program string, n int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(program); i++ {
		h = (h ^ uint64(program[i])) * 1099511628211
	}
	x := uint64(seed) ^ h
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}
