package cnf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteDimacs serialises the formula in DIMACS CNF format.
func WriteDimacs(w io.Writer, f *Formula) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, len(f.Clauses)); err != nil {
		return err
	}
	var line []byte
	for _, c := range f.Clauses {
		line = line[:0]
		for _, l := range c {
			line = append(strconv.AppendInt(line, int64(l.Dimacs()), 10), ' ')
		}
		line = append(line, '0', '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDimacs parses a DIMACS CNF file. Comment lines (starting with 'c')
// are ignored. The header counts are checked against the actual content.
func ReadDimacs(r io.Reader) (*Formula, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	f := New()
	declaredVars, declaredClauses := -1, -1
	var cur Clause
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("cnf: malformed problem line %q", line)
			}
			var err error
			declaredVars, err = strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("cnf: bad variable count: %v", err)
			}
			declaredClauses, err = strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("cnf: bad clause count: %v", err)
			}
			continue
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("cnf: bad literal %q: %v", tok, err)
			}
			if n == 0 {
				f.push(cur...)
				cur = cur[:0]
				continue
			}
			cur = append(cur, FromDimacs(n))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cur) > 0 {
		// Final clause without the trailing 0 terminator.
		f.push(cur...)
	}
	f.view()
	if declaredClauses >= 0 && len(f.Clauses) != declaredClauses {
		return nil, fmt.Errorf("cnf: header declares %d clauses, found %d", declaredClauses, len(f.Clauses))
	}
	if declaredVars >= 0 && f.NumVars > declaredVars {
		return nil, fmt.Errorf("cnf: header declares %d variables, found variable %d", declaredVars, f.NumVars)
	}
	if declaredVars > f.NumVars {
		f.NumVars = declaredVars
	}
	return f, nil
}
