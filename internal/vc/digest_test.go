package vc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/flatten"
	"repro/internal/unfold"
	"repro/internal/vc"
	"repro/internal/weakmem"
	"repro/prog"
)

// dimacsDigests pins the encoder's output bit for bit: SHA-256 of
// cnf.WriteDimacs(enc.Formula()) per cell, recorded on the map-based
// builder of PR 21 (commit 0557d9d) and never re-recorded since. The
// cells are the benchmark's own — the 19 jobs of quick_batch and the
// formulas of the three proof workloads — plus one cell each for PSO,
// the round-robin scheduler and ZeroLocals. A cell is named as the
// benchmark names its jobs; the source goes through prog.Format and
// prog.Parse as it does there.
var dimacsDigests = []struct {
	cell   string
	sha256 string
}{
	{"bb.u8.c3", "e9252f1de2dbe6e9cf139587551a02bf017362de9741fbc38823b00facfc6146"},
	{"bb.u8.c4", "978d414804fc089ea075d3fb8db7502c184f0c71d010635be6df11b7110a918b"},
	{"bb.u6.c4", "66f1db7ccb9098132ab73973a5f70e09ad6b39b67c8d26b7c3623b45ec4815fa"},
	{"ss.u6.c3", "dce001e65c6d30051ceb521a91792ce5e9ebe102308328d13487c7b4949dd483"},
	{"ss.u8.c3", "c297d0f50096f206c360a59012dde1f1ab69f12e8e72db01fb09e7047407df91"},
	{"ss.u4.c4", "474e93f12084d7cd155fc39a2cd8c209cff608f895a1d366322c72a94f50287f"},
	{"es.u6.c2", "40d25f0060789dadca889dc95d61a4521ef83792eb17368613bf3d563b0bea59"},
	{"es.u4.c3", "f5e2303039484ad9b98f54ee33a7005f646540b9bee106c8bffa3798fd8ad498"},
	{"ws.u8.c3", "e43dc9817d87ccb168d08a4a54bc12111a090e06525b3d8ca98e1c1b7af330b9"},
	{"ws.u8.c4", "5246ed83c2417669b5c804d438d5b77ae2042a2b9e4847cc36f42811b56484d8"},
	{"ws.u5.c4", "72128e880cc1a67e7379ef3de8624041bf1f28c9ae68e34f20f356afda3b7f94"},
	{"wsfix.u6.c3", "0892939b61cda2b04595d909e39af065d9503f498b66a92a1afd439486bb656a"},
	{"bbfix.u6.c3", "c212fdeb05d731dc9481ed1b4ed411b7c409280d1104c1dfb868d8daf7e6164c"},
	{"fib4.u4.c4", "2af158ef8dc4eb647b642bc1fb7499eda7e4d0e36bacf8660b86ba259d334c67"},
	{"bb.u2.c6", "f0f86779e5f8d855e35b9e6e1db05058fd9562a18159f387c5c20308d64f9c66"},
	{"bb.u4.c7", "907e5c7da6a27d7e08225105e92e58adf3c265d4a82b75d2b225128a46ac1d47"},
	{"ws.u3.c7", "7caa5ab07eff3af29689759c1b04f112b2cb79008dfba54667e263f85c4f135a"},
	{"fib2.u2.c6", "13c740d69617cbb025e98360d91890b7dd08c6f21013afca7379d057ce954908"},
	{"es.tso1.u3.c3", "058788b3e3011c44c737bcad914f11f4a5a0f2fa9ffcb8322db1bc61c10fd775"},
	{"es.u2.c6", "a16d1354e919cec23a7a23a3d62b616c681dd6804ce3938dc839f4b0e028757f"},
	{"wsfix.u2.c6", "64b0d0c4a8a997e9f9aa5d1705b1b3f6769be47cef340ab863b61d3931827637"},
	{"es.u2.c5", "4dc733a22ccda30464d5b1584743bc8856b2507a7f120bfbc6b927177f835b2b"},
	{"ws.u2.c6", "6d1bca6d4c58ca115f258316a1379c60f41b7d0050717c4318d01c87732e3aa5"},
	{"ss.pso.u2.c3", "27dd8ed3c967941b7f08f1c4670b26fa97b4b5b1173016b1015612abbb58a2d9"},
	{"bb.u2.r2", "e2bde1ad86be37bc974fd3c892ba52484e16d507df01dc717b05bd11203b8ce4"},
	{"ws.u3.c4.zero", "529e5f0816004fe8810f5623083f1645e8ed30844598330fe81524608b5c82a7"},
}

// flattenCell decodes <prog>[.tso1|.pso].u<n>.(c<n>|r<n>)[.zero] into
// the flattened program and the encoder options of the cell.
func flattenCell(t testing.TB, cell string) (*flatten.Program, vc.Options) {
	t.Helper()
	fields := strings.Split(cell, ".")
	programs := map[string]func() *prog.Program{
		"bb": bench.Boundedbuffer, "bbfix": bench.BoundedbufferFixed,
		"es": bench.Eliminationstack, "ss": bench.Safestack,
		"ws": bench.Workstealingqueue, "wsfix": bench.WorkstealingqueueFixed,
		"fib2": func() *prog.Program { return bench.Fibonacci(2) },
		"fib4": func() *prog.Program { return bench.Fibonacci(4) },
	}
	p, err := prog.Parse(prog.Format(programs[fields[0]]()))
	if err != nil {
		t.Fatal(err)
	}
	var opts vc.Options
	unwind := 0
	for _, f := range fields[1:] {
		n, _ := strconv.Atoi(strings.TrimLeft(f, "tsoucr"))
		switch {
		case f == "zero":
			opts.ZeroLocals = true
		case f == "pso":
			p, err = weakmem.Transform(p)
		case strings.HasPrefix(f, "tso"):
			p, err = weakmem.TransformTSO(p, n)
		case f[0] == 'u':
			unwind = n
		case f[0] == 'c':
			opts.Contexts = n
		case f[0] == 'r':
			opts.Mode, opts.Rounds = vc.RoundRobin, n
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	up, err := unfold.Unfold(p, unfold.Options{Unwind: unwind})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := flatten.Flatten(up)
	if err != nil {
		t.Fatal(err)
	}
	return fp, opts
}

func encodeCell(t testing.TB, cell string) *vc.Encoded {
	t.Helper()
	fp, opts := flattenCell(t, cell)
	enc, err := vc.Encode(fp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestDimacsDigests(t *testing.T) {
	for _, d := range dimacsDigests {
		h := sha256.New()
		if err := cnf.WriteDimacs(h, encodeCell(t, d.cell).Formula()); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != d.sha256 {
			t.Errorf("{%q, %q},", d.cell, got)
		}
	}
}

// The encoder allocates by the chunk, not by the clause or the gate: it
// makes about one allocation per eighteen clauses (words, the maps of
// the symbolic state, chunks), where the map-based builder made 1.06 per
// clause. One per six is the line between the two.
func TestEncodeAllocatesPerChunk(t *testing.T) {
	fp, opts := flattenCell(t, "ss.u8.c3")
	var enc *vc.Encoded
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if enc, err = vc.Encode(fp, opts); err != nil {
			t.Fatal(err)
		}
	})
	if clauses := enc.Formula().NumClauses(); clauses != 79331 || allocs > float64(clauses)/6 {
		t.Fatalf("%.0f allocations for %d clauses (79331 expected), want at most one per six", allocs, clauses)
	}
}
