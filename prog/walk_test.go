package prog

import (
	"reflect"
	"testing"
)

// rhs parses src as the right-hand side of an assignment to k.
func rhs(t *testing.T, src string) Expr {
	t.Helper()
	p, err := Parse("int a[2]; int g, h, k; void main() { k = " + src + "; }")
	if err != nil {
		t.Fatal(err)
	}
	return p.Main().Body[0].(*AssignStmt).RHS
}

func TestMapRefsOrder(t *testing.T) {
	var seen []string
	out := MapRefs(rhs(t, "a[g + h] + g * k"), func(lv LValue) Expr {
		seen = append(seen, lv.String())
		return lv
	})
	want := []string{"g", "h", "a[(g + h)]", "g", "k"}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("visited %q, want %q", seen, want)
	}
	if got := out.String(); got != "(a[(g + h)] + (g * k))" {
		t.Errorf("identity map gave %s", got)
	}
}

func TestMapRefsIndexBeforeIndexRef(t *testing.T) {
	out := MapRefs(rhs(t, "a[g]"), func(lv LValue) Expr {
		switch x := lv.(type) {
		case *VarRef:
			return &IntLit{Value: 1}
		case *IndexRef:
			if _, ok := x.Index.(*IntLit); !ok {
				t.Errorf("IndexRef seen with index %s, want it mapped first", x.Index)
			}
		}
		return lv
	})
	if got := out.String(); got != "a[1]" {
		t.Errorf("got %s, want a[1]", got)
	}
}

func TestMapRefsResultNotRewalked(t *testing.T) {
	calls := 0
	out := MapRefs(rhs(t, "g"), func(lv LValue) Expr {
		calls++
		return &BinaryExpr{Op: OpAdd, X: lv, Y: &IntLit{Value: 1}}
	})
	if got := out.String(); got != "(g + 1)" || calls != 1 {
		t.Errorf("got %s after %d calls, want (g + 1) after 1", got, calls)
	}
}

func TestMapRefsPassesLiteralsAndNil(t *testing.T) {
	f := func(lv LValue) Expr {
		t.Errorf("f called on %s", lv)
		return lv
	}
	if out := MapRefs(nil, f); out != nil {
		t.Errorf("nil mapped to %v", out)
	}
	for _, e := range []Expr{&IntLit{Value: 3}, &BoolLit{Value: true}, &Nondet{}} {
		if out := MapRefs(e, f); out != e {
			t.Errorf("%s mapped to %s", e, out)
		}
	}
}

func TestMentions(t *testing.T) {
	e := rhs(t, "a[g] + 1")
	for name, want := range map[string]bool{"a": true, "g": true, "h": false} {
		if got := Mentions(e, func(n string) bool { return n == name }); got != want {
			t.Errorf("Mentions(%s, %q) = %v, want %v", e, name, got, want)
		}
	}
	if Mentions(nil, func(string) bool { return true }) {
		t.Error("nil mentions a variable")
	}
}
