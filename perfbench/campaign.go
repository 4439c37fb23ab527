package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/harness"
	cstore "hauberk/internal/harness/store"
	"hauberk/internal/swifi"
	"hauberk/internal/workloads"
)

// campaignDatasets is how many dataset indices per program the campaign
// workload draws from (the graphics programs have eight); the reference
// digests cover all of them.
const campaignDatasets = 8

const campaignRefFile = "campaign_digests.json"

// campaignSpecs are the nine programs: seven HPC and two graphics.
func campaignSpecs() []*workloads.Spec {
	return append(workloads.HPC(), workloads.Graphics()...)
}

func campaignDataset(seed int64, spec *workloads.Spec) workloads.Dataset {
	return workloads.Dataset{Index: datasetFor(seed, spec.Name, min(campaignDatasets, spec.NumDatasets))}
}

// digestHash is the reference form of a FigureDigest.
func digestHash(d string) string {
	h := sha256.Sum256([]byte(d))
	return hex.EncodeToString(h[:])
}

// loadCampaignRefs reads program -> dataset index -> digest hash.
func loadCampaignRefs(dir string) (map[string][]string, error) {
	b, err := os.ReadFile(filepath.Join(dir, campaignRefFile))
	if err != nil {
		return nil, fmt.Errorf("campaign reference: %w", err)
	}
	var refs map[string][]string
	if err := json.Unmarshal(b, &refs); err != nil {
		return nil, fmt.Errorf("campaign reference: %w", err)
	}
	return refs, nil
}

// prepareCampaigns is the campaign workload's setup: a fresh environment
// and one PrepareCampaign per program.
func prepareCampaigns(seed int64) (*harness.Env, []*harness.PreparedCampaign, error) {
	e := harness.NewEnv(harness.QuickScale())
	var pcs []*harness.PreparedCampaign
	for _, s := range campaignSpecs() {
		pc, err := e.PrepareCampaign(s, campaignDataset(seed, s))
		if err != nil {
			return nil, nil, err
		}
		pcs = append(pcs, pc)
	}
	return e, pcs, nil
}

// runPreparedChecked runs one durable campaign into dir and checks its
// digest against the store read back and the reference. It returns the
// RunPrepared wall time and the result.
func runPreparedChecked(e *harness.Env, pc *harness.PreparedCampaign, dir, ref string) (time.Duration, *harness.CampaignResult, error) {
	t0 := time.Now()
	cr, err := e.RunPrepared(context.Background(), pc, harness.CampaignOptions{Dir: dir, Isolation: harness.IsolationOff})
	wall := time.Since(t0)
	if err != nil {
		return wall, nil, err
	}
	digest := cr.FigureDigest()
	_, loaded, err := harness.LoadCampaignDir(dir)
	if err != nil {
		return wall, nil, err
	}
	if got := loaded.FigureDigest(); got != digest {
		return wall, nil, fmt.Errorf("%s: digest read back from the store differs from RunPrepared's:\n%s\nvs\n%s", pc.Spec.Name, got, digest)
	}
	if h := digestHash(digest); h != ref {
		return wall, nil, fmt.Errorf("%s dataset %d: digest hash %s, reference %s; digest:\n%s", pc.Spec.Name, pc.Dataset.Index, h, ref, digest)
	}
	return wall, cr, nil
}

func refFor(refs map[string][]string, pc *harness.PreparedCampaign) string {
	if r := refs[pc.Spec.Name]; pc.Dataset.Index < len(r) {
		return r[pc.Dataset.Index]
	}
	return "missing"
}

// runCampaign measures the campaign workload: passes of one durable
// in-process campaign per program until the run's seconds are spent.
func runCampaign(o options, res *result) error {
	refs, err := loadCampaignRefs(o.refDir)
	if err != nil {
		return err
	}
	var setups []float64
	var e *harness.Env
	var pcs []*harness.PreparedCampaign
	for len(setups) < campaignSetups {
		runtime.GC()
		t0 := time.Now()
		e, pcs, err = prepareCampaigns(o.seed)
		if err != nil {
			return err
		}
		setups = append(setups, secondsSince(t0))
	}
	for _, pc := range pcs {
		note("%-10s dataset %2d, %d injections", pc.Spec.Name, pc.Dataset.Index, len(pc.Plan))
	}

	var passes, rates, peaks []float64
	var retained float64
	var okInj int64
	start := time.Now()
	for pass := 0; pass == 0 || secondsSince(start) < float64(o.seconds); pass++ {
		mem := startMemSampler()
		passDir := filepath.Join(o.workDir, fmt.Sprintf("pass%d", pass))
		wall := 0.0
		var ok int64
		for _, pc := range pcs {
			t, _, err := runPreparedChecked(e, pc, filepath.Join(passDir, pc.Spec.Name), refFor(refs, pc))
			n := int64(len(pc.Plan))
			res.op(n, err == nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: campaign check failed:", err)
				continue
			}
			ok += n
			wall += t.Seconds()
		}
		okInj += ok
		peaks = append(peaks, mem.peakMB())
		if pass == 0 {
			retained = retainedMB()
		}
		if ok > 0 {
			passes = append(passes, 1000*wall)
			rates = append(rates, float64(ok)/wall)
		}
		if err := os.RemoveAll(passDir); err != nil {
			return err
		}
	}
	res.set("setup_s", median(setups), "s")
	res.set("ops_per_s", median(rates), "1/s")
	note("= injections_per_s, median over %d passes (%d injections)", len(rates), okInj)
	setPassLatencies(res, passes, "one pass: the nine programs' campaigns, run as one job")
	setMemory(res, retained, peaks)
	return nil
}

// traceCampaign is the campaign workload's traced pass. It recomposes
// PrepareCampaign and the durable injection loop from public calls,
// spanning each call, and aborts unless the recomposition reproduces
// RunPrepared's outcome for every plan index.
func traceCampaign(o options, res *result, tr *tracer) error {
	refs, err := loadCampaignRefs(o.refDir)
	if err != nil {
		return err
	}
	e := harness.NewEnv(harness.QuickScale())
	var pcs []*harness.PreparedCampaign
	for _, s := range campaignSpecs() {
		pc, err := prepareTraced(e, s, campaignDataset(o.seed, s), tr)
		if err != nil {
			return err
		}
		pcs = append(pcs, pc)
	}
	// The recomposed preparation must equal PrepareCampaign's.
	_, direct, err := prepareCampaigns(o.seed)
	if err != nil {
		return err
	}
	for i, pc := range pcs {
		if a, b := planKeys(pc.Plan), planKeys(direct[i].Plan); a != b {
			return fmt.Errorf("fidelity: %s recomposed plan differs from PrepareCampaign's", pc.Spec.Name)
		}
	}

	var untraced, traced time.Duration
	var all harness.Tally
	var injections, activated, hangs, retries int
	for _, pc := range pcs {
		ref := refFor(refs, pc)
		wall, cr, err := runPreparedChecked(e, pc, filepath.Join(o.workDir, "ref-"+pc.Spec.Name), ref)
		res.op(int64(len(pc.Plan)), err == nil)
		if err != nil {
			return err
		}
		untraced += wall

		t0 := time.Now()
		dir := filepath.Join(o.workDir, "traced-"+pc.Spec.Name)
		got, err := injectTraced(e, pc, dir, tr)
		traced += time.Since(t0)
		if err != nil {
			return err
		}
		for i, r := range cr.Results {
			g := got[i]
			if g.Outcome != r.Outcome || g.Hang != r.Hang || g.Activated != r.Activated {
				return fmt.Errorf("fidelity: %s plan index %d: recomposed outcome %v (hang %v, activated %v), RunPrepared %v (hang %v, activated %v)",
					pc.Spec.Name, i, g.Outcome, g.Hang, g.Activated, r.Outcome, r.Hang, r.Activated)
			}
			if r.Activated {
				activated++
			}
			retries += r.Retries
		}
		_, loaded, err := harness.LoadCampaignDir(dir)
		if err != nil {
			return err
		}
		if digestHash(loaded.FigureDigest()) != ref {
			return fmt.Errorf("fidelity: %s recomposed store digest differs from the reference", pc.Spec.Name)
		}
		injections += len(cr.Results)
		hangs += cr.Hangs
		all.Merge(cr.All)
	}
	note("campaign fidelity: %d of %d recomposed injections match RunPrepared", injections, injections)

	self := tr.selfMS()
	for _, name := range []string{"translate.instrument", "harness.golden", "harness.profile", "harness.plan",
		"gpu.new_device", "workloads.setup", "workloads.check", "store.append"} {
		res.set("campaign."+name+"_ms", self[name], "ms")
	}
	launch := 0.0
	for _, s := range campaignSpecs() {
		launch += self["gpu.launch_inject."+s.Name]
	}
	res.set("campaign.gpu.launch_inject_ms", launch, "ms")
	for _, s := range campaignSpecs() {
		res.set("campaign.gpu.launch_inject_ms."+s.Name, self["gpu.launch_inject."+s.Name], "ms")
	}
	res.set("campaign.harness.injections", float64(injections), "count")
	res.set("campaign.harness.activated_frac", float64(activated)/float64(injections), "frac")
	res.set("campaign.harness.hangs", float64(hangs), "count")
	res.set("campaign.harness.retries", float64(retries), "count")
	for oc := harness.Outcome(0); oc < harness.NumOutcomes; oc++ {
		// Metric names allow no '&': detected&masked becomes detected_masked.
		name := strings.ReplaceAll(oc.String(), "&", "_")
		res.set("campaign.harness.outcome."+name, float64(all[oc]), "count")
	}
	res.set("campaign.trace.overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%")
	note("= recomposed traced loop %.3f s vs RunPrepared %.3f s", traced.Seconds(), untraced.Seconds())
	return nil
}

func planKeys(plan []harness.Injection) string {
	b := make([]byte, 0, 32*len(plan))
	for _, inj := range plan {
		b = append(b, inj.Cmd.Key()...)
		b = append(b, ';')
	}
	return string(b)
}

// prepareTraced recomposes PrepareCampaign: instrument, golden run,
// profile, plan.
func prepareTraced(e *harness.Env, spec *workloads.Spec, ds workloads.Dataset, tr *tracer) (*harness.PreparedCampaign, error) {
	root := tr.begin("campaign.prepare", 0)
	defer tr.end(root)
	var err error
	tr.do("translate.instrument", root, func() {
		for _, m := range []translate.Mode{translate.ModeProfiler, translate.ModeFIFT} {
			if _, err = e.Instrument(spec, translate.NewOptions(m)); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var golden *harness.GoldenRun
	tr.do("harness.golden", root, func() { golden, err = e.Golden(spec, ds) })
	if err != nil {
		return nil, err
	}
	var prof *harness.ProfileResult
	tr.do("harness.profile", root, func() { prof, err = e.Profile(spec, []workloads.Dataset{ds}) })
	if err != nil {
		return nil, err
	}
	var plan []harness.Injection
	tr.do("harness.plan", root, func() { plan = e.PlanCampaign(spec, prof, e.Scale.BitCounts) })
	return &harness.PreparedCampaign{Spec: spec, Dataset: ds, Golden: golden, Prof: prof, Mode: translate.ModeFIFT, Plan: plan}, nil
}

// injectTraced recomposes the durable injection loop: per plan index a
// fresh device, the program's inputs, an FT runtime armed with the SWIFI
// injector, the injected launch, the output check, and a store append.
// It runs as many workers as RunPrepared and returns results by plan
// index.
func injectTraced(e *harness.Env, pc *harness.PreparedCampaign, dir string, tr *tracer) ([]harness.InjectionResult, error) {
	spec := pc.Spec
	kern, err := e.Instrument(spec, translate.NewOptions(pc.Mode))
	if err != nil {
		return nil, err
	}
	cs, err := cstore.Open(dir, e.CampaignManifest(spec, pc.Mode, pc.Plan), 0, 1, false)
	if err != nil {
		return nil, err
	}
	launchSpan := "gpu.launch_inject." + spec.Name
	out := make([]harness.InjectionResult, len(pc.Plan))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				inj := pc.Plan[idx]
				root := tr.begin("harness.injection", 0)
				var d *gpu.Device
				tr.do("gpu.new_device", root, func() { d = gpu.New(e.Config) })
				var inst *workloads.Instance
				tr.do("workloads.setup", root, func() { inst = spec.Setup(d, pc.Dataset) })
				var cb *hrt.ControlBlock
				var rt *hrt.Runtime
				injector := &swifi.Injector{}
				tr.do("hrt.arm", root, func() {
					cb = hrt.NewControlBlock(kern.Detectors, pc.Prof.Store)
					rt = hrt.NewFT(cb)
					injector.Arm(inj.Cmd)
					rt.Inject = injector.Probe
				})
				var lerr error
				tr.do(launchSpan, root, func() {
					_, lerr = d.Launch(kern.Kernel, gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: rt})
				})
				r := harness.InjectionResult{Injection: inj, Activated: injector.Injected}
				if lerr != nil {
					r.Outcome = harness.OutcomeFailure
					_, r.Hang = lerr.(*gpu.HangError)
				} else {
					tr.do("workloads.check", root, func() {
						meets := spec.Requirement.Check(pc.Golden.Output, inst.ReadOutput())
						r.Outcome = harness.Classify(false, cb.SDC(), meets)
					})
				}
				mu.Lock()
				out[idx] = r
				var aerr error
				tr.do("store.append", root, func() {
					aerr = cs.Append(cstore.Record{
						Idx: idx, ID: inj.Cmd.Key(), Outcome: int(r.Outcome), Hang: r.Hang,
						Activated: r.Activated, Bits: inj.Bits, Class: int(inj.Class),
					})
				})
				if aerr != nil && firstErr == nil {
					firstErr = aerr
				}
				mu.Unlock()
				tr.end(root)
			}
		}()
	}
	for i := range pc.Plan {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := cs.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return out, firstErr
}
