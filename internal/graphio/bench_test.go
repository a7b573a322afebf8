package graphio

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// gridText renders the side×side grid graph as an edge list or DIMACS.
func gridText(side int, f Format) []byte {
	var b strings.Builder
	if f == FormatDIMACS {
		fmt.Fprintf(&b, "p edge %d %d\n", side*side, 2*side*(side-1))
	}
	edge := func(u, v int) {
		if f == FormatDIMACS {
			fmt.Fprintf(&b, "e %d %d\n", u+1, v+1)
		} else {
			fmt.Fprintf(&b, "%d %d\n", u, v)
		}
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := r*side + c
			if c+1 < side {
				edge(v, v+1)
			}
			if r+1 < side {
				edge(v, v+side)
			}
		}
	}
	return []byte(b.String())
}

// BenchmarkTextParse measures the one production text parser through
// ReadLimited (buffer, one chunk, FromCSR) and ParseCSR (straight to the
// CSR, no pool) against the streaming reference parser, on a 90×90 grid
// (8,100 vertices, about the size of the solve_ding instance).
func BenchmarkTextParse(b *testing.B) {
	for _, f := range []Format{FormatEdgeList, FormatDIMACS} {
		data := gridText(90, f)
		b.Run(f.String()+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := oracleRead(data, f, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(f.String()+"/ReadLimited", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadLimited(bytes.NewReader(data), f, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(f.String()+"/ParseCSR", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ParseCSR(data, f, CSROptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
