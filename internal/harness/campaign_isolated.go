package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/guardian"
	"hauberk/internal/guardian/procexec"
	"hauberk/internal/guardian/procexec/chaos"
	"hauberk/internal/kir"
	"hauberk/internal/obs"
	"hauberk/internal/swifi"
	"hauberk/internal/workloads"
)

// Isolation modes for CampaignOptions.Isolation.
const (
	// IsolationOff runs every injection in the campaign process (the
	// fast default; panics are contained by the in-process recover path).
	IsolationOff = "off"
	// IsolationProcess runs each injection in a supervised worker
	// subprocess (internal/guardian/procexec): a panic, runaway loop or
	// OOM kills one worker, never the campaign, and the supervisor
	// classifies the death. Falls back to in-process execution per
	// injection when spawning fails.
	IsolationProcess = "process"
)

// isoRequest is the wire form of one injection run shipped to a worker.
// Everything the worker needs to re-stage the experiment is derivable
// deterministically from these fields (program specs, golden runs and
// range profiles are pure functions of program+dataset), which is what
// keeps isolated campaigns byte-identical to in-process ones.
type isoRequest struct {
	Program string       `json:"program"`
	Dataset int          `json:"dataset"`
	Mode    int          `json:"mode"`
	Engine  int          `json:"engine"`
	Cmd     swifiCommand `json:"cmd"`
	Bits    int          `json:"bits"`
	Class   int          `json:"class"`
}

// isoResponse is the classified outcome shipped back. It carries exactly
// the fields recordOf needs beyond the plan's own (bits, class), so the
// durable store record is identical to the in-process one.
type isoResponse struct {
	Outcome   int  `json:"outcome"`
	Hang      bool `json:"hang"`
	Activated bool `json:"activated"`
	// Path/Reason name the fault-local replay path the worker took, so
	// the campaign process counts hauberk_replay_total as in-process
	// runs do.
	Path   string `json:"path,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// WorkerMain is the body of `hauberk-run -worker`: serve injection
// requests framed on in/out until in closes. It must own out (stdout)
// exclusively — a stray print would corrupt the framing and be classified
// as a crash by the supervisor. The HAUBERK_CHAOS environment variable,
// inherited from the supervisor, arms deterministic failure injection.
func WorkerMain(in io.Reader, out io.Writer) error {
	plan, err := chaos.FromEnv()
	if err != nil {
		return err
	}
	type staged struct {
		env    *Env
		spec   *workloads.Spec
		golden *GoldenRun
		rstore *ranges.Store
		// tabs holds the replay table per instrumentation mode, recorded
		// on the first request that needs it.
		tabs map[translate.Mode]*replayTable
	}
	cache := make(map[string]*staged)
	h := func(id string, payload json.RawMessage) (json.RawMessage, error) {
		var req isoRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("harness: worker request %s: %w", id, err)
		}
		key := fmt.Sprintf("%s|%d|%d", req.Program, req.Dataset, req.Engine)
		st := cache[key]
		if st == nil {
			spec := workloads.ByName(req.Program)
			if spec == nil {
				return nil, fmt.Errorf("harness: worker: unknown program %q", req.Program)
			}
			// Workers are processes in a pool: each keeps its own launch
			// parallelism serial so N workers use N cores, not N*NumCPU.
			env := NewEnv(QuickScale())
			env.Config.Interpreter = gpu.Interpreter(req.Engine)
			env.Config.LaunchWorkers = 1
			ds := workloads.Dataset{Index: req.Dataset}
			golden, err := env.Golden(spec, ds)
			if err != nil {
				return nil, err
			}
			prof, err := env.Profile(spec, []workloads.Dataset{ds})
			if err != nil {
				return nil, err
			}
			st = &staged{env: env, spec: spec, golden: golden, rstore: prof.Store,
				tabs: make(map[translate.Mode]*replayTable)}
			cache[key] = st
		}
		mode := translate.Mode(req.Mode)
		tab := st.tabs[mode]
		if tab == nil {
			t, err := st.env.recordReplay(st.spec, st.golden, st.rstore, mode)
			if err != nil {
				return nil, err
			}
			tab = t
			st.tabs[mode] = tab
		}
		inj := Injection{Cmd: req.Cmd.command(), Bits: req.Bits, Class: kir.DataClass(req.Class)}
		r, path, reason, err := tab.run(st.env, inj)
		if err != nil {
			return nil, err
		}
		return json.Marshal(isoResponse{
			Outcome:   int(r.Outcome),
			Hang:      r.Hang,
			Activated: r.Activated,
			Path:      path,
			Reason:    reason,
		})
	}
	return procexec.Serve(in, out, h, procexec.ServeOptions{Chaos: plan})
}

// isoPool hands out one procexec.Supervisor per campaign worker slot, so
// up to `workers` injections run in distinct worker subprocesses at once.
type isoPool struct {
	sups chan *procexec.Supervisor
	all  []*procexec.Supervisor
}

// newIsoPool builds n lazily-spawning supervisors for a campaign. The
// per-injection watchdog deadline travels per-request through Do.
func (e *Env) newIsoPool(n int, opts CampaignOptions) (*isoPool, error) {
	argv := opts.WorkerArgv
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("harness: resolve worker binary: %w", err)
		}
		argv = []string{exe, "-worker"}
	}
	// opts arrives normalized: Retries == 0 means the caller disabled
	// retrying, which procexec spells as a negative MaxRestarts.
	restarts := opts.Retries
	if restarts <= 0 {
		restarts = -1
	}
	p := &isoPool{sups: make(chan *procexec.Supervisor, n)}
	for i := 0; i < n; i++ {
		s := procexec.NewSupervisor(procexec.Config{
			Argv:        argv,
			Env:         opts.WorkerEnv,
			MaxRestarts: restarts,
			Backoff:     opts.Backoff,
			WarmupGrace: opts.WorkerWarmupGrace,
			Chaos:       opts.Chaos,
			Obs:         e.Obs,
		})
		p.all = append(p.all, s)
		p.sups <- s
	}
	return p, nil
}

// Close shuts every supervisor down, killing any live worker group. The
// campaign calls it before its final store flush so no worker process
// outlives the run.
func (p *isoPool) Close() {
	if p == nil {
		return
	}
	var wg sync.WaitGroup
	for _, s := range p.all {
		wg.Add(1)
		go func(s *procexec.Supervisor) {
			defer wg.Done()
			s.Close()
		}(s)
	}
	wg.Wait()
}

// runInjectionIsolated executes one injection in a supervised worker
// subprocess and maps process deaths onto the campaign's classification:
// a worker crash (panic, SIGKILL, corrupt protocol) that survives the
// supervisor's restarts is a crash failure, a worker hang (heartbeat
// miss or watchdog deadline) a hang failure — the same outcomes the
// in-process path produces for *gpu.CrashError and watchdog expiry, which
// is what keeps figure digests byte-identical across isolation modes.
// When the worker cannot be spawned at all the injection degrades
// gracefully to the in-process guarded path.
func (e *Env) runInjectionIsolated(
	ctx context.Context,
	pool *isoPool,
	tab *replayTable,
	inj Injection,
	timeout time.Duration,
	opts CampaignOptions,
) (*InjectionResult, error) {
	sup := <-pool.sups
	defer func() { pool.sups <- sup }()

	spec := tab.spec
	req := isoRequest{
		Program: spec.Name,
		Dataset: tab.golden.Dataset.Index,
		Mode:    int(tab.mode),
		Engine:  int(e.Config.Interpreter),
		Cmd:     wireCommand(inj.Cmd),
		Bits:    inj.Bits,
		Class:   int(inj.Class),
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := sup.Do(ctx, inj.Cmd.Key(), payload, timeout)
	switch {
	case err == nil:
		var out isoResponse
		if err := json.Unmarshal(resp, &out); err != nil {
			return nil, fmt.Errorf("harness: worker response for %s: %w", inj.Cmd.Key(), err)
		}
		e.countReplay(out.Path, out.Reason)
		return &InjectionResult{
			Injection: inj,
			Outcome:   Outcome(out.Outcome),
			Hang:      out.Hang,
			Activated: out.Activated,
		}, nil

	case errors.Is(err, procexec.ErrSpawn):
		// Isolation unavailable: degrade to the in-process path rather
		// than fail the campaign (the recover path in gpu/harness still
		// contains panics, just without a process boundary).
		if e.Obs.Enabled() {
			e.Obs.Emit(obs.EvWorkerFallback,
				obs.Str("program", spec.Name),
				obs.Str("reason", err.Error()))
			e.Obs.Metrics().Counter("hauberk_worker_spawn_fallbacks_total").Inc()
		}
		return e.runInjectionGuarded(ctx, tab, inj, timeout, opts)

	default:
		var crash *guardian.WorkerCrashError
		var hang *guardian.WorkerHangError
		if errors.As(err, &crash) {
			return &InjectionResult{Injection: inj, Outcome: OutcomeFailure}, nil
		}
		if errors.As(err, &hang) {
			return &InjectionResult{Injection: inj, Outcome: OutcomeFailure, Hang: true, TimedOut: true}, nil
		}
		return nil, err
	}
}

// swifiCommand is the JSON wire form of swifi.Command (declared here so
// the wire schema is explicit and stable rather than borrowing whatever
// field set the in-memory struct grows).
type swifiCommand struct {
	Site       int    `json:"site"`
	Instance   int64  `json:"instance"`
	Mask       uint32 `json:"mask"`
	Count      int64  `json:"count,omitempty"`
	Persistent bool   `json:"persistent,omitempty"`
}

func wireCommand(c swifi.Command) swifiCommand {
	return swifiCommand{Site: c.Site, Instance: c.Instance, Mask: c.Mask,
		Count: c.Count, Persistent: c.Persistent}
}

func (c swifiCommand) command() swifi.Command {
	return swifi.Command{Site: c.Site, Instance: c.Instance, Mask: c.Mask,
		Count: c.Count, Persistent: c.Persistent}
}
