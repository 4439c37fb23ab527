package harness

import (
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
	"hauberk/internal/workloads"
)

// SensitivityResult aggregates Figure 1: for one program group, the
// outcome split per corrupted data class under single-bit injections into
// the uninstrumented (FI-only) binary. In this baseline setting there are
// three observable outcomes: failure (crash/hang), silent data corruption
// (requirement violated, nothing detected it), and not manifested.
type SensitivityResult struct {
	Group   string
	ByClass map[kir.DataClass]*Tally
}

// SDCRatio returns the SDC fraction for a data class.
func (s *SensitivityResult) SDCRatio(c kir.DataClass) float64 {
	t := s.ByClass[c]
	if t == nil {
		return 0
	}
	return t.Frac(OutcomeUndetected)
}

// FailureRatio returns the crash/hang fraction for a data class.
func (s *SensitivityResult) FailureRatio(c kir.DataClass) float64 {
	t := s.ByClass[c]
	if t == nil {
		return 0
	}
	return t.Frac(OutcomeFailure)
}

// Sensitivity runs the Figure 1 study for a program group: one FI-only
// campaign of single-bit faults per program. cpuMode runs the programs on
// a page-protected scalar device, reproducing the CPU-program profile
// (low SDC, high crash) from the same injections.
func (e *Env) Sensitivity(group string, specs []*workloads.Spec, cpuMode bool) (*SensitivityResult, error) {
	if cpuMode {
		e = e.Clone()
		e.Config.Mode = gpu.ModeCPU
		e.Config.SMs = 1
	}
	out := &SensitivityResult{Group: group, ByClass: make(map[kir.DataClass]*Tally)}
	ds := workloads.Dataset{Index: 0}
	for _, spec := range specs {
		golden, err := e.Golden(spec, ds)
		if err != nil {
			return nil, err
		}
		prof, err := e.Profile(spec, []workloads.Dataset{ds})
		if err != nil {
			return nil, err
		}
		// Figure 1 uses single-bit errors only (SEU emulation).
		cr, err := e.RunCampaign(spec, golden, nil, translate.ModeFI, e.PlanCampaign(spec, prof, []int{1}))
		if err != nil {
			return nil, err
		}
		for c, tal := range cr.ByClass {
			if out.ByClass[c] == nil {
				out.ByClass[c] = &Tally{}
			}
			out.ByClass[c].Merge(*tal)
		}
	}
	return out, nil
}
