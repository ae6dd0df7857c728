package engine

import (
	"context"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/board"
	"repro/internal/bram"
	"repro/internal/platform"
)

func mitigationFleet(t *testing.T) *Fleet {
	t.Helper()
	ps := platform.VC707().Scaled(24).Replicas(2)
	ps = append(ps, platform.KC705A().Scaled(24))
	return NewFleet(ps, Options{Workers: 2})
}

func TestMitigationCampaign(t *testing.T) {
	f := mitigationFleet(t)
	events := make(chan Event, 1024)
	res, err := f.RunCampaign(context.Background(), Campaign{
		Kind:   KindMitigation,
		Sweep:  fastSweep(),
		Events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Boards) != 3 {
		t.Fatalf("boards = %d, want 3", len(res.Boards))
	}
	for _, br := range res.Boards {
		if br.Err != nil {
			t.Fatalf("board %d failed: %v", br.Board, br.Err)
		}
		if got := len(br.Mitigation); got != 4 {
			t.Fatalf("board %d has %d arms, want 4", br.Board, got)
		}
		for i, arm := range br.Mitigation {
			if arm.Arm != MitigationArms()[i] {
				t.Fatalf("board %d arm %d = %q, want canonical order %v",
					br.Board, i, arm.Arm, MitigationArms())
			}
			if len(arm.Levels) == 0 {
				t.Fatalf("board %d arm %q swept no levels", br.Board, arm.Arm)
			}
			if arm.MinSafeV == 0 {
				t.Fatalf("board %d arm %q found no safe level (nominal must be clean)",
					br.Board, arm.Arm)
			}
		}
		unprot, eccArm := br.Mitigation[0], br.Mitigation[1]
		// ECC tolerates everything single-bit the raw memory cannot, so it
		// never stops shallower than unprotected.
		if eccArm.MinSafeV > unprot.MinSafeV+1e-9 {
			t.Fatalf("board %d: ecc min-safe %.3f shallower than unprotected %.3f",
				br.Board, eccArm.MinSafeV, unprot.MinSafeV)
		}
		// ECC decode accounting: every faulty word is corrected, detected,
		// or silently wrong — nothing is lost.
		for li, pt := range eccArm.Levels {
			raw := unprot.Levels[li]
			if pt.V != raw.V {
				t.Fatalf("board %d level %d: arm ladders diverge (%.3f vs %.3f)",
					br.Board, li, pt.V, raw.V)
			}
			if pt.Corrected+pt.Detected+pt.Silent > raw.WordErrors {
				t.Fatalf("board %d level %d: ecc outcomes %d+%d+%d exceed %d faulty words",
					br.Board, li, pt.Corrected, pt.Detected, pt.Silent, raw.WordErrors)
			}
			if pt.WordErrors != pt.Detected+pt.Silent {
				t.Fatalf("board %d level %d: ecc word errors %d != detected %d + silent %d",
					br.Board, li, pt.WordErrors, pt.Detected, pt.Silent)
			}
			if pt.EnergyJ <= raw.EnergyJ {
				t.Fatalf("board %d level %d: ecc energy %.6f not above unprotected %.6f",
					br.Board, li, pt.EnergyJ, raw.EnergyJ)
			}
		}
	}
	if got := len(res.Agg.Mitigation); got != 4 {
		t.Fatalf("aggregate has %d arms, want 4", got)
	}
	for i, ma := range res.Agg.Mitigation {
		if ma.Arm != MitigationArms()[i] {
			t.Fatalf("aggregate arm %d = %q, want canonical order", i, ma.Arm)
		}
		if ma.Boards != 3 {
			t.Fatalf("aggregate arm %q covers %d boards, want 3", ma.Arm, ma.Boards)
		}
	}

	levels, done := 0, 0
drain:
	for {
		select {
		case ev := <-events:
			switch ev.Kind {
			case EventLevel:
				levels++
				if ev.V <= 0 {
					t.Fatalf("level event without voltage: %+v", ev)
				}
			case EventBoardDone:
				done++
			}
		default:
			break drain
		}
	}
	if done != 3 {
		t.Fatalf("done events = %d, want 3", done)
	}
	if levels == 0 {
		t.Fatal("no level events streamed")
	}
}

func TestMitigationDeterminism(t *testing.T) {
	run := func() *CampaignResult {
		f := mitigationFleet(t)
		res, err := f.RunCampaign(context.Background(), Campaign{
			Kind: KindMitigation, Sweep: fastSweep(), MitIsoEnergy: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("mitigation campaign is not deterministic across identical runs")
	}
}

func TestMitigationArmSubsetAndValidation(t *testing.T) {
	f := NewFleet(platform.VC707().Scaled(24).Replicas(1), Options{})
	res, err := f.RunCampaign(context.Background(), Campaign{
		Kind: KindMitigation, Sweep: fastSweep(),
		MitArms: []string{ArmDVFS, ArmUnprotected}, // request order ≠ canonical
	})
	if err != nil {
		t.Fatal(err)
	}
	arms := res.Boards[0].Mitigation
	if len(arms) != 2 || arms[0].Arm != ArmUnprotected || arms[1].Arm != ArmDVFS {
		t.Fatalf("arm subset not canonicalized: %+v", arms)
	}
	if got := len(res.Agg.Mitigation); got != 2 {
		t.Fatalf("aggregate arms = %d, want 2", got)
	}

	bad := []Campaign{
		{Kind: KindMitigation, MitArms: []string{"bogus"}},
		{Kind: KindMitigation, MitArms: []string{ArmECC, ArmECC}},
		{Kind: KindMitigation, MitVoltages: []float64{0.8, 0.9}},
		{Kind: KindMitigation, MitVoltages: []float64{-0.1}},
	}
	for i, c := range bad {
		if _, err := f.RunCampaign(context.Background(), c); err == nil {
			t.Fatalf("campaign %d: bad mitigation inputs accepted", i)
		}
	}
}

func TestMitigationExplicitLadder(t *testing.T) {
	p := platform.VC707().Scaled(24)
	ladder := []float64{p.Cal.Vnom, p.Cal.Vmin, p.Cal.Vcrash}
	f := NewFleet([]platform.Platform{p}, Options{})
	res, err := f.RunCampaign(context.Background(), Campaign{
		Kind: KindMitigation, Sweep: fastSweep(), MitVoltages: ladder,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Boards[0].Mitigation[0].Levels
	if len(got) != 3 {
		t.Fatalf("levels = %d, want 3", len(got))
	}
	for i, pt := range got {
		if pt.V != ladder[i] {
			t.Fatalf("level %d at %.3f, want %.3f", i, pt.V, ladder[i])
		}
	}
}

// readoutReads is the full-readout mitigation read path the fault-index
// reads replaced, kept as their reference: every payload word is read back
// and XORed against the pattern.
var readoutReads = mitigationReads{
	scan: func(b *board.Board, run uint64, sites []int, pattern uint16) (flipped int, masks []uint16, err error) {
		buf := make([]uint16, bram.Rows)
		for _, site := range sites {
			if err := b.ReadBRAMInto(buf, site, run); err != nil {
				return 0, nil, err
			}
			for _, w := range buf {
				if m := w ^ pattern; m != 0 {
					flipped += bits.OnesCount16(m)
					masks = append(masks, m)
				}
			}
		}
		return flipped, masks, nil
	},
	probe: func(b *board.Board, run uint64, pattern uint16, vuln []float64) error {
		buf := make([]uint16, bram.Rows)
		for site := range vuln {
			if err := b.ReadBRAMInto(buf, site, run); err != nil {
				return err
			}
			n := 0
			for _, w := range buf {
				n += bits.OnesCount16(w ^ pattern)
			}
			vuln[site] = float64(n)
		}
		return nil
	},
}

// TestMitigationIndexMatchesReadout pins the fault-index mitigation reads to
// the full-readout reference: every arm's level curve (ECC corrected,
// detected and silent counts included) and the fleet aggregate must be
// identical, on scaled dies and on one full-size die, for the default
// ladder, an explicit ladder, the iso-energy DVFS baseline and an arm subset
// without ICBP.
func TestMitigationIndexMatchesReadout(t *testing.T) {
	vc := platform.VC707()
	fleets := []struct {
		name string
		ps   []platform.Platform
	}{
		{"scaled", append(vc.Scaled(24).Replicas(2), platform.KC705A().Scaled(24))},
		{"full-size", []platform.Platform{platform.KC705A()}},
	}
	campaigns := []struct {
		name string
		c    Campaign
	}{
		{"default", Campaign{Kind: KindMitigation, Sweep: fastSweep()}},
		{"explicit-ladder", Campaign{Kind: KindMitigation, Sweep: fastSweep(),
			MitVoltages: []float64{vc.Cal.Vnom, vc.Cal.Vmin, vc.Cal.Vmin - 0.03, vc.Cal.Vcrash + 0.01, vc.Cal.Vcrash}}},
		{"iso-energy", Campaign{Kind: KindMitigation, Sweep: fastSweep(), MitIsoEnergy: true}},
		{"no-icbp", Campaign{Kind: KindMitigation, Sweep: fastSweep(),
			MitArms: []string{ArmUnprotected, ArmECC, ArmDVFS}}},
	}
	for _, fl := range fleets {
		for _, tc := range campaigns {
			fname, ps, cname, c := fl.name, fl.ps, tc.name, tc.c
			run := func(reads mitigationReads) *CampaignResult {
				f := NewFleet(ps, Options{Workers: 2})
				f.mitReads = reads
				res, err := f.RunCampaign(context.Background(), c)
				if err != nil {
					t.Fatalf("%s/%s: %v", fname, cname, err)
				}
				for _, br := range res.Boards {
					if br.Err != nil {
						t.Fatalf("%s/%s board %d: %v", fname, cname, br.Board, br.Err)
					}
				}
				return res
			}
			got, want := run(indexReads), run(readoutReads)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: fault-index mitigation result diverged from the readout reference", fname, cname)
			}
			// Guard against a vacuous pin: the ladder must reach levels where
			// the raw memory faults and ECC corrects.
			var wordErrors, corrected int
			for _, br := range got.Boards {
				for _, arm := range br.Mitigation {
					for _, pt := range arm.Levels {
						if arm.Arm == ArmUnprotected {
							wordErrors += pt.WordErrors
						}
						corrected += pt.Corrected
					}
				}
			}
			if wordErrors == 0 || corrected == 0 {
				t.Fatalf("%s/%s: %d faulty words, %d ECC corrections; the pin is vacuous",
					fname, cname, wordErrors, corrected)
			}
		}
	}
}
