package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/circuit"
)

// goldenDigests pins every built-in circuit: for each, the digest of the
// circuit as built and of its .bench text parsed back (see netlistDigest).
// A change to netlist construction must leave all of them unchanged; the
// service's remote runs, for one, match in-process runs only because a
// circuit's .bench round trip reproduces the same netlist on both sides.
var goldenDigests = map[string][2]string{
	"c17": {
		"22ecf56739c77a3191f71b6dab003388a2e18c8d68882088c1ffb7aed40a0a47",
		"22ecf56739c77a3191f71b6dab003388a2e18c8d68882088c1ffb7aed40a0a47",
	},
	"paper": {
		"c7ef178b1b0c4f004e0ecc7170c2eaa1af236cb28ced5247a058cbeae3ddd2bc",
		"8b1641d6b29d9659563b90ed500280398785f8770b6040c976db128b699215a1",
	},
	"redundant": {
		"1f47114d0dc24304e6a95437d24c0cba8ffa6d958a5ceea7012811b76aba2254",
		"f090e3f2f90d9ca2bbf6150f3f2c21f77b0387b4edea55b37dad498d8fae07f5",
	},
	"adder8": {
		"f356f1ef3677c89348bcbe96cbc7ee13492cb27ce65375c6fa506c35bb6558f0",
		"15ce7ab1904129b95067ed4defa8e0d723bd629781526b1c5aad1a1a1a8ba019",
	},
	"parity8": {
		"f8371d7c682d8625415aed234bb21822043a14473d3871d6b28bc49141958eb5",
		"f8371d7c682d8625415aed234bb21822043a14473d3871d6b28bc49141958eb5",
	},
	"mux3": {
		"2d64c03b7d5125c22ce5f54d4b77e116ccbb5cd40dc48bab2059c2d98957a72c",
		"bc7bc17c20ff093f88b53ae936061169aba9b888aacf1d889991c18a84b15fb8",
	},
	"cmp8": {
		"1c9144cbbee9a806d9ea6acb044be763e929a5328ee16f2734722092613e61db",
		"b8b3eb6eb7b7f908549c675f3f0147f921a663b2f3df054f7292630854b9c941",
	},
	"c432": {
		"ef1543acdab3dc091d3061f37f7756b05464429ab0571f215f0ae65a4545c7d4",
		"0df4dbaa1ec2d482c33398ecb6c2a7a791958067bb8d2cbf60e613c661350163",
	},
	"c499": {
		"1910035f5440c8fbfa7c0c25900077f615cc8b92d4cc33ff5ddfd6f61cab21c0",
		"af458d07eda72d5daeef2952b872ded89484d9a490ada1c99ac48e93314791db",
	},
	"c880": {
		"e73a5cc4d75d7485078c3b39f23dfd2bbff63f345f3f158e3837ba4692cb142c",
		"43273228749f23cca05223ee906c3107303ee94374f62f9cc51ccac4c1d53414",
	},
	"c1355": {
		"21c8138545f3490ce7498a93fc2aab2475c92214ab146dd41af965842648fb4a",
		"630f49039a0a37f6c8a16fcf89155446c288bfbf969010961771fe85407a0564",
	},
	"c1908": {
		"ee1d96c070bd1b1496e22472d74cc7bd7cd90ff5a09dfc1c2e4290ba6bdc4464",
		"9064c6e90670b6a6ae97ea7bd7a5852ceeb09b164016a738ce0e32f9640e22f1",
	},
	"c2670": {
		"484bfd09066a55365f6a193e4974b81bcd9adda15b43f6f12330e3604edf4de7",
		"849cde8fe2414fb4fea0ec4a2ab14e5738d85873c1ee890df4efccd853a376ae",
	},
	"c3540": {
		"99daafd7fd303322d22da613dbab64b46e22c5c3bb575775efaa0fea20b953b3",
		"761fb422dc37cdc7e6718ee546d48398cbb27ca0598fb91b86d5ad014aaca518",
	},
	"c5315": {
		"fce4cc55e05a412ea288339a4e389a10d8541ef5263df225d51b8a3aa786a9bf",
		"b136cb31da4d9003f529a440398e827d687c7ad0f4b406053588c8456046d989",
	},
	"c6288": {
		"6f42114f50ac7a9fe04627e117443f8108924a816b163227e03b61960861ce3e",
		"f7f500906004b985677eb369e3bc9109724b8f79bdb59c28bd9249b4e258d363",
	},
	"c7552": {
		"a84844d819474e3148f81e10b4408ba51932c98ab52871b01448a967c22e252c",
		"325cd95deeeb0b5f02950809e6e19e98322fc2beeb7bfddd5e12ce7755cc184b",
	},
	"s641": {
		"8354dea4d34b5091ef9dbfd172ea57783c2c5bd835ebe029f276d5be820da022",
		"6488b4ef04bc1d570f63318fc7d1023d74ce05e9fdd417b057b2c300134b8cdd",
	},
	"s713": {
		"4b25cfe96d3177ea640421f938490fd77351e51db0c0e843985774ea9c56614b",
		"fcc736f50008ff65d13db8b133bf53c0dcf0787b3b0a561681eebc844c332641",
	},
	"s838": {
		"d140c6ef7a6cbc8b3249e3b76dc939cd8a1ac0ea4ee2ba76a26e815544ad3225",
		"645be35b0fe5612c761f0324ba0837989ba7e83181589ac2ef4765efc1451314",
	},
	"s938": {
		"d823758492b92fde8dc55fdb2b87a3425f014636333380e0b5abd7c690a149b3",
		"8946e0e56135aedb7049eeb08e60f0d319b5b5982e11e5b0b41eae10c1542174",
	},
	"s991": {
		"5eda5ef0e153a2e6022f99d7db2ddfaeebf18aaa9b11ce1cc4c2a8990027ce9b",
		"fc95a51c965edeacd7bdd9bb5c7894ba556ce8ffbc1dee08c2e6af619962f66b",
	},
	"s1196": {
		"13df2ece021cb65006c6516133cc459c28e6e162f6935a8c5badff103d4fb0bd",
		"f746148e0439cd29039c91e0a6801b106d76a3e59c474818ea819a4b987fb33c",
	},
	"s1238": {
		"e31fe822cf452b5fdc9b1887b23424b0b3f9a4a6055d16b8c8cd996e2e047a6c",
		"4e2eef4f698d74a08acb7a85552443cc7809fa98eaf54c767b56ad51c75aac35",
	},
	"s1269": {
		"6069871df631fbcfb2290eb567a8f21cb9b5f4bef733bfa9323e3595943d0bc6",
		"6927bd44eff10fd7a85a25d4d95c7069ac1f149f8ffc3da1402016cae3f56a67",
	},
	"s1423": {
		"7e58ee85e816b23c403979d6bfc29a7a1aa6950e51993596545f8173d5acea04",
		"d5675f8c0f1d98f2185b8cd81a3374f6420f03fbf388f2dcc3b2a48a5760a49d",
	},
	"s1494": {
		"a0cc6c1729e7683802335789b9c7212a05a4e10987b4f3e901d9c03d45e5829e",
		"653b25e70222e2b62cb7874cf1cd1655dfe4838742691602a8366fa5bdc1b618",
	},
	"s3271": {
		"0a1f413b626300ca211d387ba2507615daf849b384ecf37afa6be8d8827c54e5",
		"bb004007416b0a353195ddb4303e049cfd77299f40219a49fa8ed13a1fb0ee28",
	},
	"s5378": {
		"8f39dca7b62ff700a65751930308ca2f43a9154f4b1d1c09ddaef970f479e77d",
		"13d586e67a6e6fcd7f776d2f7eaf82361ba52ce39346ec1fc4fc9259de51f433",
	},
	"s9234": {
		"686340cfe10ca65c191475900ffe0cbcc0d84b84b782ba9345431c7ad3e29018",
		"2899a48db8f11d3ef6d988a203f94f514877f74f4a0d8af60b42d283649e2621",
	},
	"s13207": {
		"e5053eb2766efae16a31d20f6cae6f3db950acd127efda18669f141bfc5d9301",
		"da4138ab8b985369233424274c1615be304f69afd719e183c2ec53ce18a2ef44",
	},
	"s15850": {
		"b1cd91edb43925e1926be2beeba0fdace79f91a9b4c1cbcff03dbdc4f0d57fae",
		"8de53a12c7a0cb8480423fa50c839595a2c84f895d7c4add050277b77187f688",
	},
	"s38584": {
		"2e412dfc2498fc39c64ac3ad38345e7b840c4ab506122a9ec72744d584b00c35",
		"01d167cab2a9edb282ebc3556965a52b6c556078a6fb7e7cc6be42bf2a9cef00",
	},
}

// netlistDigest is the SHA-256 of a circuit's .bench text, its TopoOrder
// and every gate's Fanout list in ID order, each list prefixed with its
// length.
func netlistDigest(c *circuit.Circuit) string {
	h := sha256.New()
	h.Write([]byte(circuit.BenchString(c)))
	writeIDs(h, c.TopoOrder())
	for _, g := range c.Gates() {
		writeIDs(h, g.Fanout)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeIDs(h hash.Hash, ids []circuit.NetID) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(len(ids)))
	h.Write(buf[:])
	for _, id := range ids {
		binary.LittleEndian.PutUint32(buf[:], uint32(id))
		h.Write(buf[:])
	}
}

// TestGoldenNetlists holds every profile of Profiles(), the three embedded
// circuits and one size of each parametric family to the digests above,
// both as built and after a .bench round trip.
func TestGoldenNetlists(t *testing.T) {
	names := []string{"c17", "paper", "redundant", "adder8", "parity8", "mux3", "cmp8"}
	for _, p := range Profiles() {
		names = append(names, p.Name)
	}
	if len(names) != len(goldenDigests) {
		t.Fatalf("%d circuits for %d golden digests", len(names), len(goldenDigests))
	}
	for _, name := range names {
		want, ok := goldenDigests[name]
		if !ok {
			t.Errorf("%s: no golden digest", name)
			continue
		}
		c, err := Get(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		parsed, err := circuit.ParseBenchString(name, circuit.BenchString(c))
		if err != nil {
			t.Fatalf("%s: parsing its .bench text: %v", name, err)
		}
		got := [2]string{netlistDigest(c), netlistDigest(parsed)}
		if got != want {
			t.Errorf("%s: digests (built, parsed) = %q, want %q", name, got, want)
		}
	}
}
