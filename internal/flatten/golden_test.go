package flatten

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/unfold"
	"repro/internal/weakmem"
	"repro/prog"
)

// callsProgram exercises the renaming paths of unfold the bench corpus
// leaves out: a global and a local passed by reference, an expression
// passed by value, a value returned into an array element, an early
// return, recursion cut at the bound and create with an argument.
const callsProgram = `
int g;
int a[2];

int pick(int x, int y) {
  if (x > y) {
    return x;
  }
  y = y + 1;
  return y;
}

void bump(int x) {
  x = x + 1;
  if (x < 3) {
    bump(x);
  }
}

void w(int n) {
  int v;
  v = n;
  bump(v);
  a[v - n] = pick(g, n + 1);
  bump(g);
}

void main() {
  int t;
  t = create(w, g + 1);
  join(t);
  assert(a[0] <= g);
}
`

// flattenGolden pins unfold and flatten: SHA-256 of
// Format(Flatten(Unfold(p, u))) under SC, PSO and TSO (depth 2). Recorded
// at the commit before the three front-end passes were moved onto
// prog.MapRefs; the walker must not move them.
var flattenGolden = map[string]string{
	"fibonacci-2/sc/u1":               "55143604b1d96b488d1f76685613424f1c957002b7b6434f3b7a982edcdac82d",
	"fibonacci-2/sc/u2":               "b417f6891f1ce055a4473c79fa8f7fb30c0144c8a031f82d26cfb0889c82d858",
	"fibonacci-2/pso/u1":              "66a54f838a4b1948c0ea3df31c98ecb82195c657ed7a7ce07f3eabfb49d9a03b",
	"fibonacci-2/pso/u2":              "b672cf3e13b566c695bf433e51038732fc352e3daa802482a1321d8bd7818c2a",
	"fibonacci-2/tso2/u1":             "ab486e22a690b1bd5e3616c3cc536315db2e5f7c64076cb78cdc902523d88af2",
	"fibonacci-2/tso2/u2":             "100eca7abda7bb48485f908a1679d63f225e29fa944004b9a84a0880468e1e7f",
	"fibonacci-4/sc/u1":               "3f13907dc2422a9c88368eb812de98b80b6d6d95350153c6be6876723c66b21c",
	"fibonacci-4/sc/u2":               "040814fea86db9f65830540a7692d96a1f32b3d63a9fe61c1c3f488cd6bf8627",
	"fibonacci-4/pso/u1":              "ac067e5a05501a3d7ecd8f69318f3b368e4cb4423a3de2b202c474179f669ec6",
	"fibonacci-4/pso/u2":              "478f0e49cd86be3c30df1d3651b92741469e7a46d2cffffdd362f7b8da9e544c",
	"fibonacci-4/tso2/u1":             "a1cc6e1ae2c76e9a5ed83139d52edd2721b5b3ea1756b3f13952f43b650c26ae",
	"fibonacci-4/tso2/u2":             "a2e69d2b4097ea593e1180baac549aeb01cf78347e92872dc77ca6a758562bea",
	"boundedbuffer-fixed/sc/u1":       "aad55aae80d536cefcaf07604af2edb4fced60ffcb20e210c400c54b38b46476",
	"boundedbuffer-fixed/sc/u2":       "cbdf3121da7cf3afcb6320c8cfa5058bce77e0b24d595334d809796d4c6b58f9",
	"boundedbuffer-fixed/pso/u1":      "6c403c1aa8be0e716b49fb790c66d8e1286ffd43a35ccf4d6145fb0089dada01",
	"boundedbuffer-fixed/pso/u2":      "64e4a8b58191ff04e990fdb32043ffedd6f2590c4b5cae26f1cd2040934f7d9c",
	"boundedbuffer-fixed/tso2/u1":     "4717f53d4642c2042626f8bc14fd7d82f8e9f9ad00c3068f8793a644cee0b5b6",
	"boundedbuffer-fixed/tso2/u2":     "4d9b3157346196220f1217f08c19092feaf8f80615a4b7f297e9e2b32f565f19",
	"workstealingqueue-fixed/sc/u1":   "4c2034316ae908ce541b3191e20d9101277459dbcc8cec9aafe0770f2140a9cd",
	"workstealingqueue-fixed/sc/u2":   "b5d9f473eebb12e1c897a096e4037edebf2567704ccfcd89fabbcc882fc6c40c",
	"workstealingqueue-fixed/pso/u1":  "41a07658a38fe76e0a01dd2cae1cfc0bb6140159a9b11480d60118e6652043f9",
	"workstealingqueue-fixed/pso/u2":  "5e289061878869a07a8d8ed5f77ee6910d8ff37befa10933ab2f1bdfda58a455",
	"workstealingqueue-fixed/tso2/u1": "8b5962f40aa78cf9c9837e8aefd1abae6d722d53973c8199147b2b7a2f3a6c0d",
	"workstealingqueue-fixed/tso2/u2": "5801f4bef1c07f553f940f9f978303e8161c702f9699e2eb95973a56e70ce869",
	"eliminationstack-unsafe/sc/u1":   "bf850128ef4bbde44a9007564f04ca449346ef61725b5c56f9cc2f1a07dd459f",
	"eliminationstack-unsafe/sc/u2":   "aef909aa22c255790e42b6fa38d5fe049f9032c2345eb6e10646314a68959520",
	"eliminationstack-unsafe/pso/u1":  "5838f17c96fbb448d6b3886d01e3e57f2f1cde91dd4ebb245b36aee5d1f04a93",
	"eliminationstack-unsafe/pso/u2":  "3031c3d574e1e2f317c4a56c384b7eb092040044c67bd600dd09a8e5f5a772b7",
	"eliminationstack-unsafe/tso2/u1": "3ab25dbfb4f327ddb72d26f978af5d13ba3772d0a27a6e6b7f827956fef00c9d",
	"eliminationstack-unsafe/tso2/u2": "afcc77ee3b02d66b67db183f73fb9e6819210e1f61570d6f3df9b2c8e6d12360",
	"calls/sc/u1":                     "c26843233518efb16e55f006e29fe449f6fca00f8550d5fa0b94b83ae90eb6af",
	"calls/sc/u2":                     "862cf1f372b10e243cb6169f3bc88a52436b12a5aa0e6aabbf628a3f4a7382d6",
	"calls/pso/u1":                    "8e12b15c1a6c56e5b90d2bb8a5aa24fb5d92a7fccb53b974e56019a6df40ee94",
	"calls/pso/u2":                    "30536f2dc1ac8df289d3576004c5b300dec0c1a1c0abc635f7af38786df9e847",
	"calls/tso2/u1":                   "cf8229804cf943359938a272620ce7384dc0c35feb9d845b5dec530423713837",
	"calls/tso2/u2":                   "7a6d06030a2613eda5a4f849cd42392b3d8e54feaecdf047ea89c0afac443038",
	"boundedbuffer/sc/u1":             "2d37e0e262ec836f97f0cb5151e62f1c86ca17d40d116c81bda634db041c7f36",
	"boundedbuffer/sc/u2":             "e319cddda81816df11c76ddf51697589e636771a55cba489aedd8a5e43b808f5",
	"boundedbuffer/pso/u1":            "26771349d27fee25161c152251d427488131d2b7ff300bee6301ca47a3fcacd7",
	"boundedbuffer/pso/u2":            "6dc032a42e0c5de239dd5179b11ea4e85085de89fca5af13893de58caccf7174",
	"boundedbuffer/tso2/u1":           "e05f0a10aa227c4a3b0c260032859004049a9644d90c8d636e5d75c9d7afe77e",
	"boundedbuffer/tso2/u2":           "9e650819d9614a1e21a2ea139957f4c9322b4a3fefb569c1b77fe5f0354497ef",
	"eliminationstack/sc/u1":          "63c9d1ef65c7a2b60219d0e61c4bf5e1c632c11e9efecce98630412fd95cabce",
	"eliminationstack/sc/u2":          "0df71ebd06d63a178005c55d073306c7c594a466191112294212834f25a97db5",
	"eliminationstack/pso/u1":         "5347d5e953d6e7bbb2d7f47ffc48c3eb301ca14d6a4aab34a6c104a2a085802a",
	"eliminationstack/pso/u2":         "45c63355191bbe0170833fa5590e7dcc53be8afb215b2a1b0611cc76341e88f0",
	"eliminationstack/tso2/u1":        "df56a6949e67b0038863f4d411851bfbeba179fdd4b3118269d4a7034ea60054",
	"eliminationstack/tso2/u2":        "19e59550bb922c6523531c6462ef3324909380c644f65f6a033e3edf5e1acd54",
	"safestack/sc/u1":                 "95f15debd8232df6ba8b5e8a750e21d43eb607759e649caf140b0b554fcd5654",
	"safestack/sc/u2":                 "fbfb3cc91010c0add70e0faf62bee70a80c113ef9fbeb15c58b8f3ef923d7ef0",
	"safestack/pso/u1":                "de503e60780b5e8e15a2d915ac4f1f85184f87a0536aa48191e7396b00d08c0b",
	"safestack/pso/u2":                "84a830716a9959572dfdee71344f8c8021c082adf773c1d471f539042bd0db60",
	"safestack/tso2/u1":               "04890e1d15551bd8453ca9cc9e3b6fda4a58eca4140ceff70d42afc392c6ce18",
	"safestack/tso2/u2":               "497ed4cef7be942ee522e67080d53658810e3a0642f05f2c42b5c2e52b9df033",
	"workstealingqueue/sc/u1":         "24d0da703cdf51fd65ba4ad1cb1337f292c8030c13c4afcb632fffdc2ad37666",
	"workstealingqueue/sc/u2":         "6818f2fc5b127ab74735b9eeee201bcdf799c946cd2df84e012757607200cae8",
	"workstealingqueue/pso/u1":        "acbdbbf44775e362d1003721380b9d6a34ae04a8671066e9e7123ce268f76f27",
	"workstealingqueue/pso/u2":        "548b308924d26b4eae14ddfbdd39d7f79b1984787c1cc703d616f3eee8d1b2d5",
	"workstealingqueue/tso2/u1":       "15ec62116bb0edd56a79a1ae90047a8bec14334d7c2228b9c7da1b89e33b20d7",
	"workstealingqueue/tso2/u2":       "785b5a5fcfec3ee6c81bc31b4d71ee3e009631a348b9642d77b3b516495242a4",
}

func TestFlattenGolden(t *testing.T) {
	calls := prog.MustParse(callsProgram)
	calls.Name = "calls"
	corpus := []*prog.Program{
		bench.Fibonacci(2), bench.Fibonacci(4),
		bench.BoundedbufferFixed(), bench.WorkstealingqueueFixed(), bench.EliminationstackUnsafe(),
		calls,
	}
	for _, b := range bench.All() {
		corpus = append(corpus, b.Program)
	}
	models := []struct {
		name string
		f    func(*prog.Program) (*prog.Program, error)
	}{
		{"sc", func(p *prog.Program) (*prog.Program, error) { return p, nil }},
		{"pso", weakmem.Transform},
		{"tso2", func(p *prog.Program) (*prog.Program, error) { return weakmem.TransformTSO(p, 2) }},
	}
	seen := 0
	for _, p := range corpus {
		for _, m := range models {
			for u := 1; u <= 2; u++ {
				seen++
				key := fmt.Sprintf("%s/%s/u%d", p.Name, m.name, u)
				mp, err := m.f(p)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				up, err := unfold.Unfold(mp, unfold.Options{Unwind: u})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				fp, err := Flatten(up)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				var sb strings.Builder
				if err := Format(&sb, fp); err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String()))); got != flattenGolden[key] {
					t.Errorf("%q: %q, want %q", key, got, flattenGolden[key])
				}
			}
		}
	}
	if seen != len(flattenGolden) {
		t.Errorf("%d outputs checked, %d pinned", seen, len(flattenGolden))
	}
}
