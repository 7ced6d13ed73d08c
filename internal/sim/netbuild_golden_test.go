package sim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
)

// netGolden pins one network-construction pipeline (generate → setup →
// sample) to SHA-256 digests of its outputs. The digests were recorded
// with a map-based graph builder, IndexOf-per-edge walks and a
// sort.SliceStable MaxDegree rank, so any faster implementation must
// reproduce every graph, probability and realized edge bit for bit.
type netGolden struct {
	name  string
	gen   gen.Generator
	setup osn.Setup
	// csr hashes the frozen graph's offsets and neighbour array, prob
	// the instance's per-slot EdgeProb, real one realization's per-slot
	// EdgeExistsSlot vector.
	csr, prob, real string
	// digest is the sim.RecordDigest of a small default-roster grid,
	// run for the presets only (empty otherwise).
	digest string
}

func goldenPreset(t *testing.T, key string) gen.Generator {
	t.Helper()
	p, err := gen.PresetByName(key)
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Generator(0.02)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func goldenSetup(numCautious int) osn.Setup {
	s := osn.DefaultSetup()
	s.NumCautious = numCautious
	return s
}

func netGoldens(t *testing.T) []netGolden {
	return []netGolden{
		{name: "facebook", gen: goldenPreset(t, "facebook"), setup: goldenSetup(1),
			csr:    "1c1741f5edb1858cd67ce2f65155b70a10dc766d7ca41c4afaf8b40c119b45fd",
			prob:   "d0d105c32fb9244404dcc891c55879d2d596b31611a706b7b34fc31d8cd77866",
			real:   "6cea91a16b8f66fa1931bef7bb6dd82beb04b1fb34d469010fe7aff65ee1abd9",
			digest: "66f8f57474d4a3c553c480fd9fbeb97fe61faa7935e1388122badd791af60988"},
		{name: "slashdot", gen: goldenPreset(t, "slashdot"), setup: goldenSetup(10),
			csr:    "f0d4c4f827952173ec450fdb56b228c41a08d51bc87ffb32cb72c240c0d7cc2f",
			prob:   "c158b60e21a87c793bacc76f578f47c5b34fbba5b5ebeb3e2d779225958ad594",
			real:   "910b77e6121b05307770b8e6542e06255f91a50278bef86c9fea487c10d8e4f2",
			digest: "2d8fba5484ce5d8b6b2c982601241498f55c607ee9f486c7a71ab50c07385fe2"},
		{name: "twitter", gen: goldenPreset(t, "twitter"), setup: goldenSetup(10),
			csr:    "1b765392a5a9793499c066cf935f8ff19b40b612a12478a1c0a7fc87c9a654f9",
			prob:   "7e6d1267f209abc4dd82357a64afbb53433a8bb8db446b3616b6f07935b402cf",
			real:   "b29dc6437b3990b4568854737411306be3dcaa9c6b23043ef1768dfae3c83a75",
			digest: "111d44063e8a37b5547befbed67901cf676611b2a89daf93818c0f569b1a5ace"},
		{name: "dblp", gen: goldenPreset(t, "dblp"), setup: goldenSetup(10),
			csr:    "4c49eaa28c597efad05ca85b4fe83a3e2df477b5e15628c4a9a15d0bb3cec8e2",
			prob:   "f38262848816e6b9dedb6545052122217b249a14a4b379a9e836ee93eca2ae80",
			real:   "548a0cddd4bcb3d69b1aac7cd5d621abb7ce043e89b262beba4562d36f49e240",
			digest: "dedd016e86afc55f5e446a8e3a492e5fd43508c3fc692e580bd7707e5b5911cf"},
		{name: "erdos-renyi", gen: gen.ErdosRenyi{N: 300, M: 3000}, setup: goldenSetup(10),
			csr:  "feaf1169f79a1abc8966022a2744ef5f4bec45b237eb47fa424760e586570e12",
			prob: "ac46e70b3b87973b3267396c7b28e927b3c00ecc9aed12cabd4ca297626d075d",
			real: "f80d8b5e9fdd894652157069071abd707e1596eb47dc9e410e733a2eb632efba"},
		{name: "watts-strogatz", gen: gen.WattsStrogatz{N: 300, K: 10, Beta: 0.2}, setup: goldenSetup(10),
			csr:  "cc3a7234f2b420cfd01049104f9a4238869bcc94620e80636fcaebbf26ef83c4",
			prob: "f66b31d0d7a126e7b37fef84a152b34a7aa27c93af7d3f19b2792bed163d7d54",
			real: "4acd4a0c3c34021987369e325f82f06fb9cdd0fbdc45967e544b01fe901722fa"},
	}
}

func hashCSR(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	for u := 0; u < g.N(); u++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(g.AdjBase(u)))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(g.AdjSize()))
	h.Write(buf[:])
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			h.Write(buf[:4])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashEdgeProb(in *osn.Instance) string {
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < in.Graph().AdjSize(); i++ {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(in.EdgeProb(i)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashRealization(re *osn.Realization) string {
	h := sha256.New()
	slots := make([]byte, re.Instance().Graph().AdjSize())
	for i := range slots {
		if re.EdgeExistsSlot(i) {
			slots[i] = 1
		}
	}
	h.Write(slots)
	return hex.EncodeToString(h.Sum(nil))
}

func TestNetworkBuildGoldens(t *testing.T) {
	for _, c := range netGoldens(t) {
		t.Run(c.name, func(t *testing.T) {
			seed := rng.NewSeed(1, 2)
			g, err := c.gen.Generate(seed)
			if err != nil {
				t.Fatal(err)
			}
			in, err := c.setup.Build(g, seed.Split("setup"))
			if err != nil {
				t.Fatal(err)
			}
			re := in.SampleRealization(seed.Split("realization"))
			for _, h := range []struct{ what, got, want string }{
				{"CSR", hashCSR(g), c.csr},
				{"EdgeProb", hashEdgeProb(in), c.prob},
				{"EdgeExistsSlot", hashRealization(re), c.real},
			} {
				if h.got != h.want {
					t.Errorf("%s digest = %s, want %s", h.what, h.got, h.want)
				}
			}
		})
	}
}

func TestPresetRecordDigestGoldens(t *testing.T) {
	for _, c := range netGoldens(t) {
		if c.digest == "" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			factories, err := DefaultFactories(core.DefaultWeights())
			if err != nil {
				t.Fatal(err)
			}
			p := Protocol{Gen: c.gen, Setup: c.setup, Networks: 2, Runs: 2, K: 20,
				Seed: rng.NewSeed(7, 8), Workers: 2}
			dig := NewRecordDigest()
			if err := Run(context.Background(), p, factories, dig.Collect); err != nil {
				t.Fatal(err)
			}
			if got := dig.Sum(); got != c.digest {
				t.Errorf("record digest = %s, want %s", got, c.digest)
			}
		})
	}
}
