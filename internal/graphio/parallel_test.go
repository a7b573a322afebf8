package graphio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"localmds/internal/graph"
	"localmds/internal/runner"
)

// genEdgeListText renders a random messy edge list (comments, blank lines,
// optional header) and returns it with the reference parser's graph.
func genEdgeListText(t *testing.T, seed int64, lines int, header bool) (string, *graph.CSR) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 200 + rng.Intn(200)
	var b strings.Builder
	b.WriteString("# generated test input\n")
	if header {
		fmt.Fprintf(&b, "%d\n", n)
	}
	for i := 0; i < lines; i++ {
		switch rng.Intn(12) {
		case 0:
			b.WriteString("\n")
		case 1:
			b.WriteString("% a comment line\n")
		case 2:
			fmt.Fprintf(&b, "%d %d # trailing comment\n", rng.Intn(n), rng.Intn(n))
		case 3:
			fmt.Fprintf(&b, "  %d\t%d  \n", rng.Intn(n), rng.Intn(n))
		default:
			fmt.Fprintf(&b, "%d %d\n", rng.Intn(n), rng.Intn(n))
		}
	}
	text := b.String()
	g, err := oracleRead([]byte(text), FormatEdgeList, 0, 0)
	if err != nil {
		t.Fatalf("reference parse: %v", err)
	}
	return text, g.Freeze()
}

// genDIMACSText renders a random DIMACS file with the reference parser's
// graph.
func genDIMACSText(t *testing.T, seed int64, lines int) (string, *graph.CSR) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 150 + rng.Intn(150)
	var b strings.Builder
	b.WriteString("c generated test input\nc another comment\n")
	fmt.Fprintf(&b, "p edge %d %d\n", n, lines)
	for i := 0; i < lines; i++ {
		if rng.Intn(10) == 0 {
			b.WriteString("c interleaved comment\n")
		}
		fmt.Fprintf(&b, "e %d %d\n", rng.Intn(n)+1, rng.Intn(n)+1)
	}
	text := b.String()
	g, err := oracleRead([]byte(text), FormatDIMACS, 0, 0)
	if err != nil {
		t.Fatalf("reference parse: %v", err)
	}
	return text, g.Freeze()
}

// Parallel parse determinism: the same graph, with byte-identical
// fingerprint, at every worker count — and equal to the reference
// parser's graph, frozen. Read goes through the same chunk parser and is
// checked too. minChunkBytes would keep these small inputs in one chunk,
// so the inputs are padded past it by comment lines.
func TestParseCSRWorkerCountInvariance(t *testing.T) {
	pad := strings.Repeat("# padding to push the input well past one chunk\n", 3000)
	cases := []struct {
		name   string
		format Format
	}{
		{"edgelist-header", FormatEdgeList},
		{"edgelist-noheader", FormatEdgeList},
		{"dimacs", FormatDIMACS},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var text string
			var want *graph.CSR
			switch tc.name {
			case "edgelist-header":
				text, want = genEdgeListText(t, int64(ci)+1, 4000, true)
				text = pad + text
			case "edgelist-noheader":
				text, want = genEdgeListText(t, int64(ci)+2, 4000, false)
				text = pad + text
			default:
				text, want = genDIMACSText(t, int64(ci)+3, 4000)
				text = strings.Repeat("c padding to push the input well past one chunk\n", 3000) + text
			}
			ref, err := oracleRead([]byte(text), tc.format, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			want = ref.Freeze()
			g, err := Read(strings.NewReader(text), tc.format)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if !g.Equal(ref) {
				t.Fatal("Read graph differs from the reference")
			}
			for _, w := range []int{0, 1, 2, 4, 8} {
				opt := CSROptions{}
				if w > 0 {
					pool := runner.NewPool(w, 4*w)
					opt.Pool = pool
					defer pool.Close()
				}
				got, err := ParseCSR([]byte(text), tc.format, opt)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if got.Fingerprint() != want.Fingerprint() {
					t.Fatalf("workers=%d: fingerprint %s != reference %s",
						w, got.Fingerprint(), want.Fingerprint())
				}
			}
		})
	}
}

// The chunk parser reports the same first error as the reference parser,
// at any worker count and through both entry points, including the
// positioned edge-limit overflow: chunk errors are ordered by position,
// and the chunk where the edge count passes the limit is re-parsed to
// find the overflowing line.
func TestParseCSRErrorsMatchSequential(t *testing.T) {
	pad := strings.Repeat("0 1\n", 40000) // multiple chunks of valid edges
	dimacsPad := strings.Repeat("e 1 2\n", 40000)
	cases := []struct {
		name     string
		format   Format
		text     string
		maxEdges int
	}{
		{"bad token late", FormatEdgeList, pad + "3 x\n" + pad, 0},
		{"three fields", FormatEdgeList, pad + "1 2 3\n" + pad, 0},
		{"negative vertex", FormatEdgeList, pad + "-4 1\n" + pad, 0},
		{"out of declared range", FormatEdgeList, "9\n" + pad + "1 9\n" + pad, 0},
		{"two errors keep first", FormatEdgeList, pad + "a b\n" + pad + "c d\n", 0},
		{"dimacs bad endpoint", FormatDIMACS, "p edge 2 1\n" + dimacsPad + "e 1 99\n", 0},
		{"dimacs duplicate p", FormatDIMACS, "p edge 2 1\n" + dimacsPad + "p edge 2 1\n", 0},
		{"dimacs unknown type", FormatDIMACS, "p edge 2 1\n" + dimacsPad + "q 1 2\n", 0},
		{"overflow in first chunk", FormatEdgeList, pad, 100},
		{"overflow before later bad line", FormatEdgeList, pad + pad + "a b\n", 60000},
		{"bad line before overflow", FormatEdgeList, pad + "a b\n" + pad, 60000},
		{"range error on the overflow line", FormatEdgeList, "9\n" + pad + "1 9\n" + pad, 40000},
		{"overflow after comments", FormatEdgeList, "# c\n" + strings.Repeat("0 1 # x\n\n", 30000) + pad, 50000},
		{"dimacs lines past declared m", FormatDIMACS, "p edge 2 1\n" + dimacsPad, 30000},
		{"dimacs overflow before bad type", FormatDIMACS, "p edge 2 1\n" + dimacsPad + "q 1 2\n", 39999},
		{"dimacs bad endpoint before overflow", FormatDIMACS, "p edge 2 1\n" + dimacsPad[:6*20000] + "e 1 99\n" + dimacsPad, 30000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, wantErr := oracleRead([]byte(tc.text), tc.format, 0, tc.maxEdges)
			if wantErr == nil {
				t.Fatal("reference parse unexpectedly succeeded")
			}
			check := func(what string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s unexpectedly succeeded", what)
				}
				var pe *ParseError
				if !errors.As(err, &pe) || pe.Line < 1 {
					t.Fatalf("%s: rejection %v is not a positioned *ParseError", what, err)
				}
				if err.Error() != wantErr.Error() {
					t.Fatalf("%s: error %q != reference %q", what, err, wantErr)
				}
			}
			_, err := ReadLimited(strings.NewReader(tc.text), tc.format, 0, tc.maxEdges)
			check("ReadLimited", err)
			for _, w := range []int{0, 1, 2, 4, 8} {
				opt := CSROptions{MaxEdges: tc.maxEdges}
				if w > 0 {
					pool := runner.NewPool(w, 4*w)
					defer pool.Close()
					opt.Pool = pool
				}
				_, err := ParseCSR([]byte(tc.text), tc.format, opt)
				check(fmt.Sprintf("ParseCSR workers=%d", w), err)
			}
		})
	}
}

// ParseCSR handles the non-chunking formats through the same front door.
func TestParseCSROtherFormats(t *testing.T) {
	g := graph.FromEdgesUnchecked(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	want := g.Freeze()

	jsonText := []byte(`{"n":4,"edges":[[0,1],[1,2],[2,3]]}`)
	got, err := ParseCSR(jsonText, FormatJSON, CSROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("json fingerprint mismatch")
	}

	var bin bytes.Buffer
	if err := WriteCSRBin(&bin, want); err != nil {
		t.Fatal(err)
	}
	got, err = ParseCSR(bin.Bytes(), FormatAuto, CSROptions{}) // magic sniff
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("csrbin fingerprint mismatch")
	}
}

// ParseCSR enforces the same limits as ReadLimited.
func TestParseCSRLimits(t *testing.T) {
	if _, err := ParseCSR([]byte("1000001\n0 1\n"), FormatEdgeList, CSROptions{MaxVertices: 1_000_000}); err == nil {
		t.Fatal("vertex limit not enforced")
	}
	_, err := ParseCSR([]byte("0 1\n1 2\n2 3\n"), FormatEdgeList, CSROptions{MaxEdges: 2})
	if want := "line 3, column 1: edge count exceeds the limit 2"; err == nil || err.Error() != want {
		t.Fatalf("edge limit: error %v, want %q", err, want)
	}
	if _, err := ParseCSR([]byte("p edge 4 3\n"), FormatDIMACS, CSROptions{MaxEdges: 2}); err == nil {
		t.Fatal("declared edge limit not enforced")
	}
	if _, err := ParseCSR([]byte("0 1\n1 2\n"), FormatEdgeList, CSROptions{MaxEdges: 2}); err != nil {
		t.Fatalf("at the limit rejected: %v", err)
	}
}

// ParseCSRFile reads from disk with name-prefixed errors.
func TestParseCSRFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/g.edges"
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := ParseCSRFile(path, FormatAuto, CSROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 3 {
		t.Fatalf("n = %d, want 3", c.N())
	}
	bad := dir + "/bad.edges"
	if err := os.WriteFile(bad, []byte("0 x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseCSRFile(bad, FormatEdgeList, CSROptions{}); err == nil ||
		!strings.Contains(err.Error(), "bad.edges") {
		t.Fatalf("error not name-prefixed: %v", err)
	}
}
