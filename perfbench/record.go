package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"hauberk/internal/harness"
	"hauberk/internal/workloads"
)

// recordReferences regenerates the reference outputs the output checks
// compare against: the campaign digest hash of every program on each of
// its first campaignDatasets datasets, and each figure driver's rendered
// table. Run it only when a change is meant to alter these outputs:
//
//	bash perfbench/run.sh --record
func recordReferences(o options) error {
	refs := map[string][]string{}
	for _, s := range campaignSpecs() {
		for ds := 0; ds < min(campaignDatasets, s.NumDatasets); ds++ {
			e := harness.NewEnv(harness.QuickScale())
			pc, err := e.PrepareCampaign(s, workloads.Dataset{Index: ds})
			if err != nil {
				return err
			}
			dir := filepath.Join(o.workDir, fmt.Sprintf("%s-%d", s.Name, ds))
			cr, err := e.RunPrepared(context.Background(), pc, harness.CampaignOptions{Dir: dir})
			if err != nil {
				return err
			}
			_, loaded, err := harness.LoadCampaignDir(dir)
			if err != nil {
				return err
			}
			if loaded.FigureDigest() != cr.FigureDigest() {
				return fmt.Errorf("%s dataset %d: digest read back from the store differs from RunPrepared's", s.Name, ds)
			}
			refs[s.Name] = append(refs[s.Name], digestHash(cr.FigureDigest()))
			fmt.Printf("%s dataset %d recorded\n", s.Name, ds)
		}
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.refDir, campaignRefFile), append(b, '\n'), 0o644); err != nil {
		return err
	}
	e, err := setupFigures()
	if err != nil {
		return err
	}
	for _, d := range figureDrivers {
		tbl, err := d.run(e)
		if err != nil {
			return err
		}
		if err := os.WriteFile(figureRefPath(o.refDir, d.name), []byte(tbl.Render()), 0o644); err != nil {
			return err
		}
		fmt.Printf("%s recorded\n", d.name)
	}
	return nil
}
