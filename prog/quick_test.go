package prog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// srcGen generates a random well-formed program as source text, every
// operation parenthesised, used to property-test the printer/parser pair.
type srcGen struct {
	rng    *rand.Rand
	locals []string
}

func (g *srcGen) intExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return fmt.Sprint(g.rng.Intn(100) - 50)
		case 1:
			return "g"
		default:
			return g.locals[g.rng.Intn(len(g.locals))]
		}
	}
	ops := []string{"+", "-", "*", "&", "|", "^"}
	switch g.rng.Intn(4) {
	case 0:
		return "-(" + g.intExpr(depth-1) + ")"
	default:
		return fmt.Sprintf("(%s %s %s)", g.intExpr(depth-1), ops[g.rng.Intn(len(ops))], g.intExpr(depth-1))
	}
}

func (g *srcGen) boolExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		ops := []string{"<", "<=", ">", ">=", "==", "!="}
		return fmt.Sprintf("(%s %s %s)", g.intExpr(1), ops[g.rng.Intn(len(ops))], g.intExpr(1))
	}
	switch g.rng.Intn(3) {
	case 0:
		return "!" + g.boolExpr(depth-1)
	case 1:
		return fmt.Sprintf("(%s && %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	default:
		return fmt.Sprintf("(%s || %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	}
}

func (g *srcGen) local() string { return g.locals[g.rng.Intn(len(g.locals))] }

func (g *srcGen) stmts(b *strings.Builder, n, depth int) {
	for i := 0; i < n; i++ {
		switch g.rng.Intn(8) {
		case 0:
			fmt.Fprintf(b, "g = %s;\n", g.intExpr(2))
		case 1, 2:
			fmt.Fprintf(b, "%s = %s;\n", g.local(), g.intExpr(2))
		case 3:
			fmt.Fprintf(b, "assert(%s);\n", g.boolExpr(2))
		case 4:
			fmt.Fprintf(b, "assume(%s);\n", g.boolExpr(1))
		case 5:
			if depth > 0 {
				fmt.Fprintf(b, "if (%s) {\n", g.boolExpr(1))
				g.stmts(b, 1+g.rng.Intn(2), depth-1)
				b.WriteString("} else {\n")
				g.stmts(b, 1, depth-1)
				b.WriteString("}\n")
			} else {
				fmt.Fprintf(b, "g = %s;\n", g.intExpr(1))
			}
		case 6:
			if depth > 0 {
				fmt.Fprintf(b, "while (%s) {\n", g.boolExpr(1))
				g.stmts(b, 1+g.rng.Intn(2), depth-1)
				b.WriteString("}\n")
			} else {
				fmt.Fprintf(b, "%s = *;\n", g.local())
			}
		default:
			if depth > 0 {
				b.WriteString("atomic {\n")
				g.stmts(b, 1, depth-1)
				b.WriteString("}\n")
			} else {
				fmt.Fprintf(b, "g = %s;\n", g.intExpr(1))
			}
		}
	}
}

func randProgram(rng *rand.Rand) string {
	g := &srcGen{rng: rng}
	var b strings.Builder
	b.WriteString("int g;\nvoid main() {\n")
	nLocals := 1 + rng.Intn(3)
	for i := 0; i < nLocals; i++ {
		n := fmt.Sprintf("x%d", i+1)
		g.locals = append(g.locals, n)
		fmt.Fprintf(&b, "int %s = 0;\n", n)
	}
	g.stmts(&b, 2+rng.Intn(5), 2)
	b.WriteString("}\n")
	return b.String()
}

// TestPrinterParserFixpointRandom: for random programs, the formatted
// output parses back, and parse∘format reaches a fixpoint after one
// normalisation round (the parser canonicalises negated integer
// literals, so the first round-trip may rewrite -(6) to -6; after that
// the representation is stable).
func TestPrinterParserFixpointRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31415))
	for iter := 0; iter < 200; iter++ {
		src := randProgram(rng)
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("iter %d: generated program does not parse: %v\n%s", iter, err, src)
		}
		s1 := Format(p1)
		p2, err := Parse(s1)
		if err != nil {
			t.Fatalf("iter %d: formatted program does not parse: %v\n%s", iter, err, s1)
		}
		s2 := Format(p2)
		p3, err := Parse(s2)
		if err != nil {
			t.Fatalf("iter %d: normalised program does not parse: %v\n%s", iter, err, s2)
		}
		s3 := Format(p3)
		if s2 != s3 {
			t.Fatalf("iter %d: Format not a fixpoint after normalisation\nfirst:\n%s\nsecond:\n%s", iter, s2, s3)
		}
	}
}

// TestRandomProgramsSurviveChecker: the generator must only produce
// programs that parse and check (guards the generator itself, which
// other tests build on).
func TestRandomProgramsSurviveChecker(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for iter := 0; iter < 100; iter++ {
		src := randProgram(rng)
		if _, err := Parse(src); err != nil {
			t.Fatalf("iter %d: %v\n%s", iter, err, src)
		}
	}
}
