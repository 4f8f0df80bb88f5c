package weakmem

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/prog"
)

// walkerLitmus exercises the statement kinds the bench corpus and the
// litmus tests leave out: calls and returns that read a buffered global,
// assume, a while condition and an array index on a buffered global, an
// array store, a nested block and create with an argument.
const walkerLitmus = `
int g, h;
int a[2];

int get(int d) {
  if (g > d) {
    return g;
  }
  return d;
}

void w(int n) {
  int v;
  v = get(h);
  while (g < n) {
    g = g + 1;
  }
  a[g - 1] = v;
  assume(h < 2);
  {
    h = a[h];
  }
  atomic {
    g = h;
  }
}

void main() {
  int t;
  g = 0;
  h = 1;
  t = create(w, g + 1);
  join(t);
  assert(g == h);
}
`

const boolLitmus = "bool f; void main() { f = true; assert(f); }"

// transformGolden pins the transformers' output: SHA-256 of
// prog.Format(Transform(p)) and of prog.Format(TransformTSO(p, d)), or
// the rejection text. Recorded at the commit before the two transformers
// were folded onto one statement walker; the walker must not move them.
var transformGolden = map[string]string{
	"bool/pso":                     "c7962c6e5d0548ff2122f60e010640a9c447f2c438e2593eaf227edd1f02f3b2",
	"bool/tso1":                    "error: weakmem: TSO transformation requires int globals, \"f\" is bool",
	"bool/tso2":                    "error: weakmem: TSO transformation requires int globals, \"f\" is bool",
	"bool/tso3":                    "error: weakmem: TSO transformation requires int globals, \"f\" is bool",
	"boundedbuffer-fixed/pso":      "aadc9e02deb3a7a61ce9445c8c71ab1c2d34a0e99c1902fb09ab6426e0ce567e",
	"boundedbuffer-fixed/tso1":     "c73cdbf483fc6c95a62b91292eda48a543703c83f0b8c1f2334df5af7266f1ea",
	"boundedbuffer-fixed/tso2":     "c18ab63c99089196816633a5516937a2cba0feaab4594f977cb37924d9f96a0a",
	"boundedbuffer-fixed/tso3":     "9ec30507f696c9628bda2c153db033675ca212bddda870ac7a75ec279f17ce6e",
	"boundedbuffer/pso":            "e0aba2b7e938063a1f52b91f85903910e6abf52ec178ec13df37a96d86e593c3",
	"boundedbuffer/tso1":           "c66eb0647f88b7fbd18c773fd1420d80475d20aac91269a554044cf8f1848cb4",
	"boundedbuffer/tso2":           "9088f2816e3c4e5df02be5b05f75621ac30d1b8dd3f1df04e10f0f052a836508",
	"boundedbuffer/tso3":           "c639b0c90ca11bf23516c981b9a2de54ec775ad81525de2456e4095ff0a949b6",
	"eliminationstack-unsafe/pso":  "8eff7f82348e914d26aa19e1fdcec088254f0f77aebe2a22373127dc04ea86ca",
	"eliminationstack-unsafe/tso1": "10bd0b1487a67b0dc5f5d2b2f2265d5f86fd017a81f8c63ae2e7947f21b7b491",
	"eliminationstack-unsafe/tso2": "19c153504555a6a311df5343cf93dcc4a4f511dc46a5da36378f8547cdd4ade0",
	"eliminationstack-unsafe/tso3": "efc60ab4b070211c04920495afb58c296ba6961762afbec4f9b45b9f25eb055c",
	"eliminationstack/pso":         "c59054d91dcbc5963c9816968b505497a90ce9753f86094aad8d3ec784cb72c7",
	"eliminationstack/tso1":        "9c3d310d41da00d2bc931e9c59a6d681fcf8dc964e01bb6ced5396a475a3a35f",
	"eliminationstack/tso2":        "185c1febd9e1ead8cf6b2ea2c8886c738c5736de6a42806e7372dee6acf5e9a5",
	"eliminationstack/tso3":        "a620eb352dc37be73657a180f52dfd20ddfebd6f0f36777105c885cb33619387",
	"fibonacci-2/pso":              "90d5d215e4cd7066ea364e41a3304496db34265e8d815b51d2fa17e8430e3303",
	"fibonacci-2/tso1":             "e638b0246ec765af6fba36b776c5d170ffa2043a35998709f252d2b1f1bfac96",
	"fibonacci-2/tso2":             "9aa0d8b67b8751f819eb687861304403f10f48dcc796219f88e25bb473d64f9b",
	"fibonacci-2/tso3":             "a2e6be760a0f60070f7b847131fcca6670aeb1eb3278c8e7808cb6d95c3739bc",
	"fibonacci-4/pso":              "692433853d0c561e3c8ae34d523c867a29f5940ffa8379f9326bb92e592e4902",
	"fibonacci-4/tso1":             "51dcaf6ecfb680bb02a99c5dc1681c7688771e7eb8f80b3ea7a911acee61666a",
	"fibonacci-4/tso2":             "34215a7c0e41dd715b990aef893c0a8181ca3c58efa02816fab9115be5c4fd86",
	"fibonacci-4/tso3":             "604bd3c5a3825f990f6eb6ffcd98f902c89d722832e7c7991bd46f6d07f53876",
	"mp/pso":                       "c088968d5e2d89a1cdeab4056184d45702c1634f67cc8cf381169af45f5ffd42",
	"mp/tso1":                      "dd5d4955159b322bdacb1106b41f87da9fbcfc168cda33c1dac04658b4fb66b5",
	"mp/tso2":                      "91af1b75e53e6d0507c8a2cfe0e48d84180c520a1ce1b55edff441d50214c047",
	"mp/tso3":                      "f50934ff0b96ff78e426522b319acff8e19b2931b5349659d7e926ac12107924",
	"safestack/pso":                "bc35414e1cd5c9a6236b2728f1a4d774000b5d109a5543e64a306d440d308d75",
	"safestack/tso1":               "70f3e98f991da6e159a641aa8431f0a6e59ec2e985968b02715622848b4fc115",
	"safestack/tso2":               "41bf467e0930a6a86b01f10c696baa7f85144d6b01871039d299c522e977bdc1",
	"safestack/tso3":               "8b20c916455fda00d1dd31cc25530e42f83b6b8b0224710e830c7394acc4ea0a",
	"sb-locked/pso":                "1025e2dec30b538d1304f75c6ee8dd85c13ad9ba4ba9436890c4bab51fd6878c",
	"sb-locked/tso1":               "bc652654266f39109eca9656e33ed3114670ce910c15944f1b93314d6efb4d0c",
	"sb-locked/tso2":               "d06b248793f698d7c61ba0dacfa0d1b13852b141290e54c5a3993e5cdf6215a2",
	"sb-locked/tso3":               "6fe9a5b5378925463d76a449cff51a489975333597443559774f92e64034a8f9",
	"sb/pso":                       "dfb1f804afe0bc5c65eff9a6dc7d9e1e8026b5481391ee78aedada40da6c4455",
	"sb/tso1":                      "16bfecfe21b710755282aa6fd2a34fd0668b4043803eac818ee9f725e072f06c",
	"sb/tso2":                      "84de6e2aea9db7866e4c158e9896f87106fc202fe89de2da7024e2955ab15f3f",
	"sb/tso3":                      "726986f7c5bc23600ae6d36a9599880952a20e871edfcb66749d93a9f71644bf",
	"walker/pso":                   "33f235f660cca8984e300f3397037cefbe73976ea7728038adef0294d6104cb9",
	"walker/tso1":                  "090b90b7de5f9fcb4b33fd986364614813fae709e147064e1b1d477c7d4e8ae0",
	"walker/tso2":                  "3dbcdffa1d42623d6237eb2ba23a60d7474c13849a03f505b4f81e493aca688b",
	"walker/tso3":                  "5320e72f5d26508b84b51b4f4d4ac7adec24e063fd1a8826a44af403c3292450",
	"workstealingqueue-fixed/pso":  "d793cc9df42f9e09b6f079b9a62369f5b44f2b4012e242ce1185d3810179517a",
	"workstealingqueue-fixed/tso1": "681cfb897931f373a93eb745bd875cc0c81c464440d64b0658c74ea9b9064453",
	"workstealingqueue-fixed/tso2": "4eab7a0267a70f269f9450064a8046cfa10bb6eccb5bd9b6862c1a321bc5b6da",
	"workstealingqueue-fixed/tso3": "2b9e5e1a4657702c24ae4a1cf504b4576fbb9f2f9f7436cad63005630d905a74",
	"workstealingqueue/pso":        "63e9cdcd956683f4579526cee6b8799499424b1c8af81ac2e818c3aff7d1ef0c",
	"workstealingqueue/tso1":       "9380bf4ccb6b9c5a27bb327ffe52035c014452060401f20f63f031b573828d59",
	"workstealingqueue/tso2":       "bcf9094618824ae40c7410a40c56ee79a6df5aba4fc1111601c94b92a26974d1",
	"workstealingqueue/tso3":       "fb9872770e3085050ee8b2ca7b92cae71980dfaa5f1ada4648139abd9ec19bf0",
}

func TestTransformGolden(t *testing.T) {
	corpus := []*prog.Program{
		bench.Fibonacci(2), bench.Fibonacci(4),
		bench.BoundedbufferFixed(), bench.WorkstealingqueueFixed(), bench.EliminationstackUnsafe(),
	}
	for _, b := range bench.All() {
		corpus = append(corpus, b.Program)
	}
	for _, l := range []struct{ name, src string }{
		{"sb", sbLitmus}, {"mp", mpLitmus}, {"sb-locked", sbLockedLitmus},
		{"walker", walkerLitmus}, {"bool", boolLitmus},
	} {
		p := prog.MustParse(l.src)
		p.Name = l.name
		corpus = append(corpus, p)
	}
	seen := 0
	for _, p := range corpus {
		check := func(model string, out *prog.Program, err error) {
			seen++
			got := ""
			if err != nil {
				got = "error: " + err.Error()
			} else {
				got = fmt.Sprintf("%x", sha256.Sum256([]byte(prog.Format(out))))
			}
			key := p.Name + "/" + model
			if got != transformGolden[key] {
				t.Errorf("%q: %q, want %q", key, got, transformGolden[key])
			}
		}
		pso, err := Transform(p)
		check("pso", pso, err)
		for d := 1; d <= 3; d++ {
			tso, err := TransformTSO(p, d)
			check(fmt.Sprintf("tso%d", d), tso, err)
		}
	}
	if seen != len(transformGolden) {
		t.Errorf("%d outputs checked, %d pinned", seen, len(transformGolden))
	}
}
