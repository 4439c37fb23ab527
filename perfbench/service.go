package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hauberk/internal/harness"
	"hauberk/internal/obs"
	"hauberk/internal/service"
	"hauberk/internal/workloads"
)

const (
	serviceProgram = "SAD"
	serviceScale   = "tiny"
	// serviceDatasets is how many datasets one run's submissions rotate
	// through. A tiny campaign's cost depends on its input (a hang costs
	// the whole step budget), so one dataset per run would make the run's
	// throughput a property of the seed.
	serviceDatasets = 8
	// serviceBatch is the submissions per pass of the closed loop.
	serviceBatch = 64
	// serviceTraceSeconds is the traced run's closed-loop window.
	serviceTraceSeconds = 5
	// serviceWait bounds one campaign's wait for completion.
	serviceWait = 30 * time.Second
)

// svcClient drives hauberkd over plain HTTP. Its transport holds at most
// one connection per client goroutine.
type svcClient struct {
	base string
	hc   *http.Client
}

// submission is one closed-loop request and what the daemon recorded.
type submission struct {
	submitAt  time.Time
	submitDur time.Duration
	doneAt    time.Time // when the client learned the campaign finished
	status    service.Status
	rejected  bool
	err       error
}

func (c *svcClient) submit(sub service.Submission) (service.Status, int, error) {
	body, err := json.Marshal(sub)
	if err != nil {
		return service.Status{}, 0, err
	}
	resp, err := c.hc.Post(c.base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return service.Status{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		return service.Status{}, resp.StatusCode, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var st service.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, resp.StatusCode, err
}

func (c *svcClient) get(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// awaitDone learns of completion from the campaign's event feed: it reads
// the NDJSON stream until campaign.done, closes it, and fetches the
// status. The daemon records the terminal state just after that event,
// so a status still running is refetched after a short doubling delay.
func (c *svcClient) awaitDone(id string) (service.Status, error) {
	ctx, cancel := context.WithTimeout(context.Background(), serviceWait)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return service.Status{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return service.Status{}, err
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Type == obs.EvCampaignDone {
			break
		}
	}
	resp.Body.Close()
	delay := 50 * time.Microsecond
	for {
		var st service.Status
		if err := c.get("/v1/campaigns/"+id, &st); err != nil {
			return st, err
		}
		if st.State.Terminal() || ctx.Err() != nil {
			return st, nil
		}
		time.Sleep(delay)
		delay = min(2*delay, 5*time.Millisecond)
	}
}

// one submits a campaign and waits for it to finish.
func (c *svcClient) one(sub service.Submission, tr *tracer) submission {
	root := tr.begin("service.submission", 0)
	defer tr.end(root)
	s := submission{submitAt: time.Now()}
	var st service.Status
	var code int
	tr.do("service.submit", root, func() { st, code, s.err = c.submit(sub) })
	s.submitDur = time.Since(s.submitAt)
	if s.err != nil {
		s.rejected = code == http.StatusTooManyRequests
		return s
	}
	tr.do("service.await", root, func() { s.status, s.err = c.awaitDone(st.ID) })
	s.doneAt = time.Now()
	return s
}

// daemon is an in-process hauberkd with its client.
type daemon struct {
	d        *service.Daemon
	c        *svcClient
	accepted int
}

// startDaemon starts a one-slot daemon, waits until it is ready and runs
// one submission per dataset, each of which pays its plan preparation.
func startDaemon(root string, dss []int, clients int) (*daemon, []submission, error) {
	d, err := service.NewDaemon(service.Config{
		Addr: "127.0.0.1:0", StoreRoot: root, Slots: 1, QueueDepth: 4 * clients,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := d.Start(); err != nil {
		return nil, nil, err
	}
	dm := &daemon{d: d, c: &svcClient{
		base: "http://" + d.Addr(),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
		}},
	}}
	if err := dm.c.get("/readyz", nil); err != nil {
		dm.stop()
		return nil, nil, err
	}
	var firsts []submission
	for _, ds := range dss {
		s := dm.c.one(serviceSubmission("tenant-0", ds), nil)
		dm.accepted++
		if s.err != nil {
			dm.stop()
			return nil, nil, s.err
		}
		firsts = append(firsts, s)
	}
	return dm, firsts, nil
}

func (dm *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dm.d.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon shutdown:", err)
	}
	dm.c.hc.CloseIdleConnections()
}

// closedLoop runs one pass: clients goroutines across two equal-weight
// tenants, each submitting its next campaign when the previous finished,
// until batch submissions are made. Submissions rotate through dss.
func (dm *daemon) closedLoop(clients, batch int, dss []int, tr *tracer) []submission {
	out := make([]submission, batch)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(batch); k = next.Add(1) - 1 {
				out[k] = dm.c.one(serviceSubmission(tenant, dss[k%int64(len(dss))]), tr)
			}
		}(fmt.Sprintf("tenant-%d", i%2))
	}
	wg.Wait()
	for _, s := range out {
		if !s.rejected && s.err == nil {
			dm.accepted++
		}
	}
	return out
}

func serviceSubmission(tenant string, ds int) service.Submission {
	return service.Submission{Tenant: tenant, Program: serviceProgram, Scale: serviceScale, Dataset: ds, Weight: 1}
}

// directDigest is the digest of a direct RunPrepared of the plan the
// service runs, read back the way the daemon reads it.
func directDigest(dir string, ds int) (string, error) {
	scale, _ := harness.ScaleByName(serviceScale)
	e := harness.NewEnv(scale)
	pc, err := e.PrepareCampaign(workloads.ByName(serviceProgram), workloads.Dataset{Index: ds})
	if err != nil {
		return "", err
	}
	if _, err := e.RunPrepared(context.Background(), pc, harness.CampaignOptions{Dir: dir}); err != nil {
		return "", err
	}
	_, cr, err := harness.LoadCampaignDir(dir)
	if err != nil {
		return "", err
	}
	return cr.FigureDigest(), nil
}

// serviceRun is one daemon's measured closed loop.
type serviceRun struct {
	subs     []submission
	passes   []float64
	setups   []float64
	peaks    []float64 // peak resident memory per pass, MiB
	retained float64   // live heap after the first pass, MiB
}

// measureService sets up daemons (keeping the last; the traced run sets
// up once), then runs closed-loop passes for the given seconds and checks
// every submission.
func measureService(o options, res *result, seconds float64, tr *tracer) (*serviceRun, error) {
	clients := runtime.NumCPU()
	dss := rand.New(rand.NewSource(o.seed)).Perm(workloads.ByName(serviceProgram).NumDatasets)[:serviceDatasets]
	want := map[int]string{}
	for _, ds := range dss {
		d, err := directDigest(filepath.Join(o.workDir, fmt.Sprintf("svc-direct-%d", ds)), ds)
		if err != nil {
			return nil, err
		}
		want[ds] = d
	}
	run := &serviceRun{}
	var dm *daemon
	for i := 0; i == 0 || (tr == nil && len(run.setups) < serviceSetups); i++ {
		if dm != nil {
			dm.stop()
		}
		runtime.GC()
		t0 := time.Now()
		var firsts []submission
		var err error
		dm, firsts, err = startDaemon(filepath.Join(o.workDir, fmt.Sprintf("svc%d", i)), dss, clients)
		if err != nil {
			return nil, fmt.Errorf("daemon setup: %w", err)
		}
		run.setups = append(run.setups, secondsSince(t0))
		for _, s := range firsts {
			res.op(1, checkSubmission(s, want) == nil)
		}
	}
	defer dm.stop()
	note("service: %s %s datasets %v, %d clients, 2 tenants, 1 slot", serviceProgram, serviceScale, dss, clients)

	start := time.Now()
	for secondsSince(start) < seconds || len(run.passes) == 0 {
		mem := startMemSampler()
		t0 := time.Now()
		subs := dm.closedLoop(clients, serviceBatch, dss, tr)
		run.passes = append(run.passes, secondsSince(t0))
		run.peaks = append(run.peaks, mem.peakMB())
		if len(run.passes) == 1 {
			run.retained = retainedMB()
		}
		run.subs = append(run.subs, subs...)
	}

	ids := map[string]bool{}
	for i := range run.subs {
		s := &run.subs[i]
		err := checkSubmission(*s, want)
		if err == nil && ids[s.status.ID] {
			err = fmt.Errorf("campaign %s reported twice", s.status.ID)
		}
		ids[s.status.ID] = true
		res.op(1, err == nil)
		if err != nil {
			s.err = err
			fmt.Fprintln(os.Stderr, "perfbench: service check failed:", err)
		}
	}
	var list struct {
		Campaigns []service.Status `json:"campaigns"`
	}
	if err := dm.c.get("/v1/campaigns", &list); err != nil {
		return nil, err
	}
	if len(list.Campaigns) != dm.accepted {
		return nil, fmt.Errorf("daemon lists %d campaigns, %d were accepted", len(list.Campaigns), dm.accepted)
	}
	return run, nil
}

// checkSubmission requires a finished campaign with the digest of the
// direct run of its dataset's plan.
func checkSubmission(s submission, want map[int]string) error {
	switch {
	case s.err != nil:
		return s.err
	case s.status.State != service.StateDone:
		return fmt.Errorf("campaign %s ended %s: %s", s.status.ID, s.status.State, s.status.Error)
	case s.status.Digest != want[s.status.Dataset]:
		return fmt.Errorf("campaign %s digest differs from the direct RunPrepared of dataset %d:\n%s\nvs\n%s",
			s.status.ID, s.status.Dataset, s.status.Digest, want[s.status.Dataset])
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runService measures the service workload.
func runService(o options, res *result) error {
	run, err := measureService(o, res, float64(o.seconds), nil)
	if err != nil {
		return err
	}
	// Each statistic is taken per pass and reported as the median over
	// passes, so a host disturbance shorter than half the run does not
	// move it.
	var rates, p50s, tails []float64
	var pct float64
	var n int
	for i, wall := range run.passes {
		var lats []float64
		for _, s := range run.subs[i*serviceBatch : (i+1)*serviceBatch] {
			if s.err == nil {
				lats = append(lats, ms(s.status.FinishedAt.Sub(s.submitAt)))
			}
		}
		if len(lats) == 0 {
			continue
		}
		rates = append(rates, float64(len(lats))/wall)
		p50s = append(p50s, median(lats))
		var t float64
		t, pct, n = tail(lats)
		tails = append(tails, t)
	}
	res.set("setup_s", median(run.setups), "s")
	res.set("ops_per_s", median(rates), "1/s")
	note("= campaigns_per_s, median over %d passes of %d submissions", len(run.passes), serviceBatch)
	res.set("op_p50_ms", median(p50s), "ms")
	note("= campaign_p50_ms (submit call to the daemon's finished_at)")
	res.set("op_tail_ms", median(tails), "ms")
	note("= campaign_tail_ms: p%.1f of the %d samples in a pass", pct, n)
	setMemory(res, run.retained, run.peaks)
	return nil
}

// traceService is the service workload's traced pass: the same closed
// loop with spans around the client's calls, split by the daemon's
// recorded timestamps.
func traceService(o options, res *result, tr *tracer) error {
	run, err := measureService(o, res, serviceTraceSeconds, tr)
	if err != nil {
		return err
	}
	var submit, wait, runMS, notify []float64
	busy := 0.0
	rejected := 0
	for _, s := range run.subs {
		if s.rejected {
			rejected++
		}
		if s.err != nil {
			continue
		}
		st := s.status
		submit = append(submit, ms(s.submitDur))
		wait = append(wait, ms(st.StartedAt.Sub(st.SubmittedAt)))
		runMS = append(runMS, ms(st.FinishedAt.Sub(st.StartedAt)))
		notify = append(notify, ms(s.doneAt.Sub(st.FinishedAt)))
		busy += st.FinishedAt.Sub(st.StartedAt).Seconds()
	}
	res.set("service.submit_ms", median(submit), "ms")
	res.set("service.queue_wait_ms", median(wait), "ms")
	res.set("service.run_ms", median(runMS), "ms")
	res.set("service.notify_ms", median(notify), "ms")
	res.set("service.slot_busy_frac", busy/sum(run.passes), "frac")
	res.set("service.rejected_429", float64(rejected), "count")
	note("= medians over %d campaigns in %d passes", len(submit), len(run.passes))
	return nil
}
