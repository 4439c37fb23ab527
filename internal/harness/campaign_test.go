package harness

import (
	"testing"

	"hauberk/internal/kir"
)

func TestFig14CoverageShape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(QuickScale())
	crs, err := e.coverageCampaigns()
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, "fig14", fig14Table(crs))
	var all Tally
	for _, cr := range crs {
		t.Logf("%-8s n=%4d failure=%4.1f%% masked=%4.1f%% det&mask=%4.1f%% detected=%4.1f%% undetected=%4.1f%% coverage=%4.1f%% hangs=%d",
			cr.Spec.Name, cr.All.Total(),
			100*cr.All.Frac(OutcomeFailure), 100*cr.All.Frac(OutcomeMasked),
			100*cr.All.Frac(OutcomeDetectedMasked), 100*cr.All.Frac(OutcomeDetected),
			100*cr.All.Frac(OutcomeUndetected), 100*cr.All.Coverage(), cr.Hangs)
		all.Merge(cr.All)
	}
	t.Logf("TOTAL    n=%4d failure=%4.1f%% masked=%4.1f%% det&mask=%4.1f%% detected=%4.1f%% undetected=%4.1f%% coverage=%4.1f%%",
		all.Total(), 100*all.Frac(OutcomeFailure), 100*all.Frac(OutcomeMasked),
		100*all.Frac(OutcomeDetectedMasked), 100*all.Frac(OutcomeDetected),
		100*all.Frac(OutcomeUndetected), 100*all.Coverage())
	if cov := all.Coverage(); cov < 0.75 {
		t.Errorf("aggregate coverage %.1f%%, want >= 75%% (paper: 86.8%%)", 100*cov)
	}
	if det := all.Frac(OutcomeDetected) + all.Frac(OutcomeDetectedMasked); det < 0.15 {
		t.Errorf("detected fraction %.1f%%, detectors appear inert", 100*det)
	}
}

func TestFig01SensitivityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(QuickScale())
	res, err := e.sensitivityGroups()
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, "fig01", fig01Table(res))
	hpc, gfx, cpu := res[0], res[1], res[2]
	for _, c := range []kir.DataClass{kir.ClassPointer, kir.ClassInteger, kir.ClassFloat} {
		t.Logf("HPC %-8s sdc=%5.1f%% failure=%5.1f%%  | graphics sdc=%5.1f%% | cpu sdc=%5.1f%% failure=%5.1f%%",
			c, 100*hpc.SDCRatio(c), 100*hpc.FailureRatio(c),
			100*gfx.SDCRatio(c), 100*cpu.SDCRatio(c), 100*cpu.FailureRatio(c))
	}

	// Observation 1: SDC is substantial for HPC GPU programs in every
	// data class.
	if hpc.SDCRatio(kir.ClassFloat) < 0.10 {
		t.Errorf("HPC FP SDC ratio %.1f%%, want substantial (paper: 39%%)", 100*hpc.SDCRatio(kir.ClassFloat))
	}
	// Observation 2: FP faults rarely cause failures; pointer faults do.
	if hpc.FailureRatio(kir.ClassFloat) > hpc.FailureRatio(kir.ClassPointer) {
		t.Errorf("FP failure ratio above pointer failure ratio")
	}
	// CPU programs crash rather than silently corrupt.
	if cpu.SDCRatio(kir.ClassPointer) > hpc.SDCRatio(kir.ClassPointer) {
		t.Errorf("CPU pointer SDC %.1f%% should be below GPU HPC %.1f%%",
			100*cpu.SDCRatio(kir.ClassPointer), 100*hpc.SDCRatio(kir.ClassPointer))
	}
}
