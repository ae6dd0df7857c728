package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/characterize"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/platform"
)

// kindDigests pins, per campaign kind, the SHA-256 of one small fixed
// campaign: its CampaignResult JSON, every board's progress weight, and the
// kind, board, progress, faults, V and inference error of every event in
// emission order. A change to a kind's runner, defaults or progress weight
// moves its digest. Update an entry only when that kind's results are meant
// to change; the failure message prints the new digest.
var kindDigests = map[CampaignKind]string{
	Characterization: "83df33dc8dd7eed108c8bc1a17370fbecc3be168dbeab49be6942349769f1051",
	TemperatureStudy: "5deff4d6faa8fec8a5e958acd988af53c11cfbe8ce640ce9194f793f5074f4f5",
	NNInference:      "aee67fc350969f9593b99f67c8bd39af08fc9aba7194c0a78bcc27fb07d06d06",
	KindPattern:      "438f126c0096f8f91ba9582ce6b3462b9a1f12f42d74226a3ec217430f97d767",
	KindThresholds:   "2029c4c623b475ce1fc5582ffca39adc929f199b4c3f01dd2fff16fa19ff28eb",
	KindMitigation:   "198a93628af8d09b167e616120170ee4e29da88340615f1f4ff376aed188af3c",
}

// digestFleet is a two-model fleet, so per-board weights differ and the
// emitted progress depends on them.
func digestFleet() []platform.Platform {
	return append(platform.VC707().Scaled(24).Replicas(2), platform.KC705A().Scaled(24))
}

// digestCampaign returns the fixed fleet and campaign the kind's digest
// covers. Every kind runs at its defaults, so the defaults are pinned too.
func digestCampaign(t *testing.T, k CampaignKind) ([]platform.Platform, Campaign) {
	t.Helper()
	c := Campaign{Kind: k, Sweep: fastSweep()}
	if k != NNInference {
		return digestFleet(), c
	}
	ds := dataset.MNISTLike(dataset.Options{
		TrainSamples: 200, TestSamples: 40, Features: 196, Classes: 10,
	})
	net, err := nn.New([]int{196, 16, 10}, "digest")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(ds.TrainX, ds.TrainY, nn.TrainOptions{Epochs: 2, LearnRate: 0.3, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	c.Net, c.TestX, c.TestY = nn.Quantize(net), ds.TestX, ds.TestY
	c.Sweep = characterize.Options{}
	return append(platform.VC707().Scaled(80).Replicas(2), platform.KC705A().Scaled(80)), c
}

// kindDigest runs the kind's fixed campaign serially and hashes it.
func kindDigest(t *testing.T, k CampaignKind) string {
	t.Helper()
	ps, c := digestCampaign(t, k)
	events := make(chan Event, 4096)
	c.Events = events
	res, err := NewFleet(ps, Options{Workers: 1}).RunCampaign(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	close(events)
	if res.Agg.Completed != len(ps) {
		t.Fatalf("%s campaign completed %d of %d boards", k, res.Agg.Completed, len(ps))
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(raw)
	for _, p := range ps {
		fmt.Fprintf(h, "weight %v\n", c.boardWeight(p))
	}
	for ev := range events {
		fmt.Fprintf(h, "%s %d %v %v %v %v\n", ev.Kind, ev.Board, ev.Progress, ev.Faults, ev.V, ev.InferError)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestKindDigestsPinned(t *testing.T) {
	if len(kindDigests) != len(kinds) {
		t.Fatalf("%d pinned digests for %d kinds: pin every kind in the table", len(kindDigests), len(kinds))
	}
	for i := range kinds {
		k := CampaignKind(i)
		t.Run(k.String(), func(t *testing.T) {
			want, ok := kindDigests[k]
			if !ok {
				t.Fatalf("kind %s has no pinned digest", k)
			}
			if got := kindDigest(t, k); got != want {
				t.Fatalf("%s campaign digest %s, pinned %s", k, got, want)
			}
		})
	}
}
