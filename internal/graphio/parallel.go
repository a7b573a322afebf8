package graphio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"

	"localmds/internal/graph"
	"localmds/internal/runner"
)

// This file is the one parser for the line-oriented text formats (edge
// list, DIMACS). It takes the whole input as one byte slice — ReadLimited
// and ParseCSRFile buffer it first; in mdsd the 64 MB request-body cap
// bounds that buffer — splits it into line-aligned chunks, and parses the
// chunks, concurrently when a runner.Pool is supplied, feeding the
// per-chunk edge buffers straight into graph.CSRFromEdgeChunks: no
// adjacency-list intermediate, no concatenating copy, and a hand-rolled
// digit parser instead of strconv per token. The result is deterministic
// by construction at any worker count: the chunking is a pure function of
// the input length and pool size, CSRFromEdgeChunks depends only on the
// concatenated edge order, and the reported error is the first one a
// line-by-line parse would hit (firstError).

// CSROptions tune ParseCSR.
type CSROptions struct {
	// Pool runs chunk parses concurrently. nil parses in the calling
	// goroutine (still through the same chunk parser, so results are
	// identical).
	Pool *runner.Pool
	// MaxVertices and MaxEdges are ReadLimited's bounds (0 =
	// unlimited). Edge-count overflow is a *ParseError at the first edge
	// line past MaxEdges, at any worker count.
	MaxVertices int
	MaxEdges    int
}

// ParseCSR parses a graph held entirely in memory into its frozen CSR
// view, in parallel on opt.Pool for the line-oriented text formats (edge
// list, DIMACS). FormatAuto sniffs like Detect; JSON and csrbin inputs
// take their sequential readers (csrbin is already binary, JSON grammar
// does not chunk on lines). ReadLimited runs the same parser, so the CSR
// is bit-identical to Read(...).Freeze() on the same input.
func ParseCSR(data []byte, f Format, opt CSROptions) (*graph.CSR, error) {
	if f == FormatAuto {
		prefix := data
		if len(prefix) > 512 {
			prefix = prefix[:512]
		}
		var err error
		if f, err = Detect(prefix); err != nil {
			return nil, err
		}
	}
	switch f {
	case FormatJSON:
		g, err := readJSON(bufio.NewReader(bytes.NewReader(data)), opt.MaxVertices, opt.MaxEdges)
		if err != nil {
			return nil, err
		}
		return g.Freeze(), nil
	case FormatCSRBin:
		return readCSRBin(bytes.NewReader(data), opt.MaxVertices, opt.MaxEdges)
	case FormatEdgeList:
		return parseEdgeListCSR(data, opt)
	case FormatDIMACS:
		return parseDIMACSCSR(data, opt)
	}
	return nil, fmt.Errorf("graphio: unsupported format %v", f)
}

// ParseCSRFile is ParseCSR over a file's contents ("-" reads stdin),
// prefixing errors with the input name.
func ParseCSRFile(path string, f Format, opt CSROptions) (*graph.CSR, error) {
	var data []byte
	var err error
	name := path
	if path == "-" {
		name = "stdin"
		data, err = readAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	c, err := ParseCSR(data, f, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return c, nil
}

// readAll is io.ReadAll with doubling growth. On error it also returns
// the bytes read so far.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// chunkSpan is one line-aligned byte range and its 1-based starting line.
type chunkSpan struct {
	lo, hi int
	line   int
}

// chunkTarget is how many line-aligned chunks to aim for per pool worker:
// more than one so an unlucky dense chunk cannot serialize the tail, few
// enough that per-chunk buffers stay large.
const chunkTarget = 4

// minChunkBytes keeps tiny inputs in a single chunk.
const minChunkBytes = 64 << 10

// splitChunks splits data[pos:] into at most count line-aligned chunks,
// recording each chunk's starting line number (the line containing
// data[pos] is line startLine). The split depends only on the input, never
// on scheduling.
func splitChunks(data []byte, pos, startLine, count int) []chunkSpan {
	rest := len(data) - pos
	if count < 1 {
		count = 1
	}
	if rest <= minChunkBytes || count == 1 {
		if rest == 0 {
			return nil
		}
		return []chunkSpan{{lo: pos, hi: len(data), line: startLine}}
	}
	size := rest / count
	if size < minChunkBytes {
		size = minChunkBytes
	}
	var spans []chunkSpan
	line := startLine
	for lo := pos; lo < len(data); {
		hi := lo + size
		if hi >= len(data) {
			hi = len(data)
		} else if nl := bytes.IndexByte(data[hi:], '\n'); nl >= 0 {
			hi += nl + 1
		} else {
			hi = len(data)
		}
		spans = append(spans, chunkSpan{lo: lo, hi: hi, line: line})
		line += bytes.Count(data[lo:hi], []byte{'\n'})
		lo = hi
	}
	return spans
}

// chunkResult is one chunk parser's output: the edges of the valid edge
// lines before the first error (all of them when err is nil).
type chunkResult struct {
	edges [][2]int
	maxV  int // largest endpoint seen, -1 if none
	err   *ParseError
	// overflow marks err as the chunk's own edge-limit overflow: one more
	// valid edge line followed the stored edges.
	overflow bool
}

// chunkParse parses one span, storing at most limit edges; the next
// valid edge line is an overflow error.
type chunkParse func(sp chunkSpan, limit int) chunkResult

// parseChunks splits data[pos:] (whose first line is line), parses the
// chunks on the pool when one is available, and returns their edge
// buffers in input order with the largest endpoint, or the first error.
func parseChunks(data []byte, pos, line int, opt CSROptions, parse chunkParse) (chunks [][][2]int, maxV int, err *ParseError) {
	spans := splitChunks(data, pos, line, chunkCount(opt.Pool))
	limit := opt.MaxEdges
	if limit <= 0 {
		limit = math.MaxInt
	}
	results := make([]chunkResult, len(spans))
	if opt.Pool == nil || len(spans) == 1 {
		for i, sp := range spans {
			results[i] = parse(sp, limit)
		}
	} else {
		var wg sync.WaitGroup
		for i, sp := range spans {
			wg.Add(1)
			opt.Pool.Submit(func() {
				defer wg.Done()
				results[i] = parse(sp, limit)
			})
		}
		wg.Wait()
	}
	if err = firstError(spans, results, limit, parse); err != nil {
		return nil, 0, err
	}
	maxV = -1
	chunks = make([][][2]int, 0, len(results))
	for _, r := range results {
		maxV = max(maxV, r.maxV)
		if len(r.edges) > 0 {
			chunks = append(chunks, r.edges)
		}
	}
	return chunks, maxV, nil
}

// firstError returns the error a line-by-line parse would hit first, or
// nil. Each chunk stops at its own first error, so chunk order decides
// between them. The edge limit is global: the chunk where the running
// edge count passes it is parsed again with the allowance left, which
// stops it at the exact overflowing line. That line precedes the chunk's
// own error, whose count covers only the lines before it.
func firstError(spans []chunkSpan, results []chunkResult, limit int, parse chunkParse) *ParseError {
	seen := 0
	for i, r := range results {
		count := len(r.edges)
		if r.overflow {
			count++
		}
		if count > limit-seen {
			if seen == 0 {
				return r.err // the chunk's own overflow is the global one
			}
			return parse(spans[i], limit-seen).err
		}
		if r.err != nil {
			return r.err
		}
		seen += count
	}
	return nil
}

func chunkCount(pool *runner.Pool) int {
	if pool == nil {
		return 1
	}
	return pool.Workers() * chunkTarget
}

// parseEdgeListCSR parses an edge list. The sequential prologue consumes
// leading blanks/comments and the optional single-integer header line;
// everything after is chunked.
func parseEdgeListCSR(data []byte, opt CSROptions) (*graph.CSR, error) {
	declaredN, pos, line, err := edgeListProlog(data, opt.MaxVertices)
	if err != nil {
		return nil, err
	}
	chunks, maxV, perr := parseChunks(data, pos, line, opt, func(sp chunkSpan, limit int) chunkResult {
		return parseEdgeListChunk(data[sp.lo:sp.hi], sp.line, declaredN, opt.MaxVertices, opt.MaxEdges, limit)
	})
	if perr != nil {
		return nil, perr
	}
	n := declaredN
	if n < 0 {
		n = maxV + 1
	}
	return graph.CSRFromEdgeChunks(n, chunks), nil
}

// edgeListProlog scans the sequential prefix of an edge list: blank and
// comment lines, plus the optional header line (first data line holding a
// single integer). It returns the declared vertex count (-1 if none), the
// byte offset where chunked parsing starts, and that offset's 1-based
// line number.
func edgeListProlog(data []byte, maxVertices int) (declaredN, pos, line int, err error) {
	lineNo := 0
	var toks []btok
	for pos < len(data) {
		lineNo++
		lineBytes, next := nextLine(data, pos)
		toks = splitFieldsBytes(stripCommentBytes(lineBytes), toks)
		if len(toks) == 0 {
			pos = next
			continue
		}
		if len(toks) != 1 {
			// First data line is an edge: no header, chunk from here.
			return -1, pos, lineNo, nil
		}
		v, verr := parseVertexBytes(toks[0], lineNo)
		if verr != nil {
			return 0, 0, 0, verr
		}
		if maxVertices > 0 && v > maxVertices {
			return 0, 0, 0, &ParseError{Line: lineNo, Col: toks[0].col,
				Msg: "vertex count " + strconv.Itoa(v) + " exceeds the limit " + strconv.Itoa(maxVertices)}
		}
		return v, next, lineNo + 1, nil
	}
	return -1, len(data), lineNo + 1, nil
}

// parseEdgeListChunk parses one line-aligned chunk of edge lines: one
// "u v" pair per line, 0-based endpoints, '#'/'%' comments (whole-line or
// trailing), blank lines ignored. Endpoints must lie below maxVertices
// (when positive) and below the header's declaredN (when >= 0). At most
// limit edges are stored; the next valid edge line fails with the
// maxEdges overflow message.
func parseEdgeListChunk(data []byte, startLine, declaredN, maxVertices, maxEdges, limit int) chunkResult {
	res := chunkResult{maxV: -1}
	res.edges = make([][2]int, 0, min(len(data)/8, limit))
	lineNo := startLine - 1
	var toks []btok
	for pos := 0; pos < len(data); {
		lineNo++
		lineBytes, next := nextLine(data, pos)
		pos = next
		// One-pass fast path for the dominant "u v" shape; any surprise
		// (sign, comment, field count, range violation, edge overflow)
		// re-parses the line generically so error positions and messages
		// come from one place.
		if u, v, ok := fastEdgeLine(lineBytes); ok && len(res.edges) < limit &&
			(maxVertices <= 0 || (u < maxVertices && v < maxVertices)) &&
			(declaredN < 0 || (u < declaredN && v < declaredN)) {
			res.maxV = max(res.maxV, u, v)
			res.edges = append(res.edges, [2]int{u, v})
			continue
		}
		toks = splitFieldsBytes(stripCommentBytes(lineBytes), toks)
		if len(toks) == 0 {
			continue
		}
		if len(toks) != 2 {
			res.err = &ParseError{Line: lineNo, Col: toks[0].col,
				Msg: "expected an edge as two vertex indices \"u v\", got " + strconv.Itoa(len(toks)) + " fields"}
			return res
		}
		u, err := parseVertexBytes(toks[0], lineNo)
		if err != nil {
			res.err = err
			return res
		}
		v, err := parseVertexBytes(toks[1], lineNo)
		if err != nil {
			res.err = err
			return res
		}
		if maxVertices > 0 {
			for i, x := range [2]int{u, v} {
				if x >= maxVertices {
					res.err = &ParseError{Line: lineNo, Col: toks[i].col,
						Msg: "vertex " + strconv.Itoa(x) + " exceeds the limit of " + strconv.Itoa(maxVertices) + " vertices"}
					return res
				}
			}
		}
		if declaredN >= 0 {
			if u >= declaredN {
				res.err = &ParseError{Line: lineNo, Col: toks[0].col,
					Msg: "vertex " + strconv.Itoa(u) + " out of range [0," + strconv.Itoa(declaredN) + ") declared by the header line"}
				return res
			}
			if v >= declaredN {
				res.err = &ParseError{Line: lineNo, Col: toks[1].col,
					Msg: "vertex " + strconv.Itoa(v) + " out of range [0," + strconv.Itoa(declaredN) + ") declared by the header line"}
				return res
			}
		}
		if len(res.edges) >= limit {
			res.err, res.overflow = edgeOverflow(lineNo, toks[0].col, maxEdges), true
			return res
		}
		res.maxV = max(res.maxV, u, v)
		res.edges = append(res.edges, [2]int{u, v})
	}
	return res
}

// edgeOverflow is the error for the first edge line past maxEdges.
func edgeOverflow(line, col, maxEdges int) *ParseError {
	return &ParseError{Line: line, Col: col, Msg: "edge count exceeds the limit " + strconv.Itoa(maxEdges)}
}

// parseDIMACSCSR parses DIMACS. The prologue consumes comments up to and
// including the problem line; the edge lines after it are chunked.
func parseDIMACSCSR(data []byte, opt CSROptions) (*graph.CSR, error) {
	n, pos, line, err := dimacsProlog(data, opt.MaxVertices, opt.MaxEdges)
	if err != nil {
		return nil, err
	}
	chunks, _, perr := parseChunks(data, pos, line, opt, func(sp chunkSpan, limit int) chunkResult {
		return parseDIMACSChunk(data[sp.lo:sp.hi], sp.line, n, opt.MaxEdges, limit)
	})
	if perr != nil {
		return nil, perr
	}
	return graph.CSRFromEdgeChunks(n, chunks), nil
}

// dimacsProlog scans up to and including the 'p edge <n> <m>' (or
// 'p col ...') problem line, skipping 'c' comment lines. The declared edge
// count m is advisory (real-world files routinely mis-state it), but with
// maxEdges > 0 it is bounded too, so an oversized declaration fails before
// any edge is parsed.
func dimacsProlog(data []byte, maxVertices, maxEdges int) (n, pos, line int, err error) {
	lineNo := 0
	var toks []btok
	for pos < len(data) {
		lineNo++
		lineBytes, next := nextLine(data, pos)
		toks = splitFieldsBytes(lineBytes, toks)
		if len(toks) == 0 {
			pos = next
			continue
		}
		switch {
		case bytes.Equal(toks[0].s, []byte("c")):
			pos = next
		case bytes.Equal(toks[0].s, []byte("p")):
			if len(toks) < 3 {
				return 0, 0, 0, &ParseError{Line: lineNo, Col: toks[0].col,
					Msg: "malformed problem line, want \"p edge <vertices> <edges>\""}
			}
			v, ok := parseIntBytes(toks[2].s)
			if !ok || v < 0 {
				return 0, 0, 0, &ParseError{Line: lineNo, Col: toks[2].col,
					Msg: "expected a non-negative vertex count, got " + strconv.Quote(string(toks[2].s))}
			}
			if maxVertices > 0 && v > maxVertices {
				return 0, 0, 0, &ParseError{Line: lineNo, Col: toks[2].col,
					Msg: "vertex count " + strconv.Itoa(v) + " exceeds the limit " + strconv.Itoa(maxVertices)}
			}
			if len(toks) > 3 {
				m, ok := parseIntBytes(toks[3].s)
				if !ok {
					return 0, 0, 0, &ParseError{Line: lineNo, Col: toks[3].col,
						Msg: "expected an edge count, got " + strconv.Quote(string(toks[3].s))}
				}
				if maxEdges > 0 && m > maxEdges {
					return 0, 0, 0, &ParseError{Line: lineNo, Col: toks[3].col,
						Msg: "edge count " + strconv.Itoa(m) + " exceeds the limit " + strconv.Itoa(maxEdges)}
				}
			}
			return v, next, lineNo + 1, nil
		case bytes.Equal(toks[0].s, []byte("e")):
			return 0, 0, 0, &ParseError{Line: lineNo, Col: toks[0].col,
				Msg: "edge line before the \"p\" problem line"}
		default:
			return 0, 0, 0, &ParseError{Line: lineNo, Col: toks[0].col,
				Msg: "unknown line type " + strconv.Quote(string(toks[0].s)) + " (want c, p, or e)"}
		}
	}
	return 0, 0, 0, &ParseError{Line: lineNo + 1, Msg: "missing \"p edge <vertices> <edges>\" problem line"}
}

// parseDIMACSChunk parses one line-aligned chunk of DIMACS lines after the
// problem line: 'c' comments and 'e <u> <v>' edge lines with 1-based
// endpoints in [1, n]. At most limit edges are stored; the next valid edge
// line fails with the maxEdges overflow message.
func parseDIMACSChunk(data []byte, startLine, n, maxEdges, limit int) chunkResult {
	res := chunkResult{maxV: -1}
	res.edges = make([][2]int, 0, min(len(data)/10, limit))
	lineNo := startLine - 1
	var toks []btok
	for pos := 0; pos < len(data); {
		lineNo++
		lineBytes, next := nextLine(data, pos)
		pos = next
		// One-pass fast path for the dominant "e u v" shape; anything else
		// — including a range violation or an edge overflow, whose errors
		// need token columns — falls back to the general tokenizer below.
		if u, v, ok := fastDIMACSEdgeLine(lineBytes); ok && len(res.edges) < limit &&
			u >= 1 && v >= 1 && u <= n && v <= n {
			res.edges = append(res.edges, [2]int{u - 1, v - 1})
			continue
		}
		toks = splitFieldsBytes(lineBytes, toks)
		if len(toks) == 0 {
			continue
		}
		switch {
		case bytes.Equal(toks[0].s, []byte("c")):
			continue
		case bytes.Equal(toks[0].s, []byte("p")):
			res.err = &ParseError{Line: lineNo, Col: toks[0].col, Msg: "duplicate problem line"}
			return res
		case bytes.Equal(toks[0].s, []byte("e")):
			if len(toks) != 3 {
				res.err = &ParseError{Line: lineNo, Col: toks[0].col,
					Msg: "expected an edge line \"e <u> <v>\", got " + strconv.Itoa(len(toks)) + " fields"}
				return res
			}
			u, err := parseDIMACSVertexBytes(toks[1], lineNo, n)
			if err != nil {
				res.err = err
				return res
			}
			v, err := parseDIMACSVertexBytes(toks[2], lineNo, n)
			if err != nil {
				res.err = err
				return res
			}
			if len(res.edges) >= limit {
				res.err, res.overflow = edgeOverflow(lineNo, toks[0].col, maxEdges), true
				return res
			}
			res.edges = append(res.edges, [2]int{u - 1, v - 1})
		default:
			res.err = &ParseError{Line: lineNo, Col: toks[0].col,
				Msg: "unknown line type " + strconv.Quote(string(toks[0].s)) + " (want c, p, or e)"}
			return res
		}
	}
	return res
}

// fastEdgeLine parses the overwhelmingly common edge-list line shape —
// two unsigned decimal fields, separating blanks, nothing else — in one
// pass. ok=false means "use the general tokenizer", not "error": signs,
// comments, '\r' between fields, surprising field counts, and
// overflow-length digit runs all bail out so the slow path keeps sole
// ownership of the error taxonomy.
func fastEdgeLine(line []byte) (u, v int, ok bool) {
	i := skipBlanks(line, 0)
	u, i, ok = fastUint(line, i)
	if !ok || i >= len(line) || (line[i] != ' ' && line[i] != '\t') {
		return 0, 0, false
	}
	i = skipBlanks(line, i)
	v, i, ok = fastUint(line, i)
	if !ok {
		return 0, 0, false
	}
	for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
		i++
	}
	return u, v, i == len(line)
}

// fastDIMACSEdgeLine is fastEdgeLine for the "e <u> <v>" shape. Range
// checks stay with the caller (bailing to the slow path on violation, for
// its column-accurate error).
func fastDIMACSEdgeLine(line []byte) (u, v int, ok bool) {
	i := skipBlanks(line, 0)
	if i+1 >= len(line) || line[i] != 'e' || (line[i+1] != ' ' && line[i+1] != '\t') {
		return 0, 0, false
	}
	return fastEdgeLine(line[i+1:])
}

func skipBlanks(line []byte, i int) int {
	for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
		i++
	}
	return i
}

// fastUint reads a run of decimal digits. Runs long enough to overflow
// (>18 digits) report !ok and defer to parseIntBytes' exact handling.
func fastUint(line []byte, i int) (int, int, bool) {
	start := i
	v := 0
	for i < len(line) {
		c := line[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + int(c)
		i++
	}
	if i == start || i-start > 18 {
		return 0, i, false
	}
	return v, i, true
}

// nextLine returns the line starting at pos (without its '\n') and the
// offset just past it.
func nextLine(data []byte, pos int) ([]byte, int) {
	if nl := bytes.IndexByte(data[pos:], '\n'); nl >= 0 {
		return data[pos : pos+nl], pos + nl + 1
	}
	return data[pos:], len(data)
}

// btok is one whitespace-delimited field with its 1-based starting column.
type btok struct {
	s   []byte
	col int
}

// splitFieldsBytes tokenizes a line on ' ', '\t', '\r'.
func splitFieldsBytes(line []byte, toks []btok) []btok {
	toks = toks[:0]
	start := -1
	for i := 0; i <= len(line); i++ {
		var space bool
		if i == len(line) {
			space = true
		} else {
			c := line[i]
			space = c == ' ' || c == '\t' || c == '\r'
		}
		switch {
		case space && start >= 0:
			toks = append(toks, btok{s: line[start:i], col: start + 1})
			start = -1
		case !space && start < 0:
			start = i
		}
	}
	return toks
}

// stripCommentBytes drops a trailing '#' or '%' comment.
func stripCommentBytes(line []byte) []byte {
	for i, c := range line {
		if c == '#' || c == '%' {
			return line[:i]
		}
	}
	return line
}

// parseIntBytes parses a decimal integer with strconv.Atoi's accepted
// syntax and range (optional sign, digits, no other bytes, [MinInt,
// MaxInt]) but without the per-token string allocation.
func parseIntBytes(s []byte) (int, bool) {
	if len(s) == 0 {
		return 0, false
	}
	neg := false
	if s[0] == '+' || s[0] == '-' {
		neg = s[0] == '-'
		s = s[1:]
		if len(s) == 0 {
			return 0, false
		}
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++ // -MinInt
	}
	var v uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (limit-d)/10 {
			return 0, false // out of range: Atoi reports ErrRange
		}
		v = v*10 + d
	}
	if neg {
		return -int(v), true
	}
	return int(v), true
}

// parseVertexBytes parses a non-negative vertex index.
func parseVertexBytes(t btok, line int) (int, *ParseError) {
	v, ok := parseIntBytes(t.s)
	if !ok || v < 0 {
		return 0, &ParseError{Line: line, Col: t.col,
			Msg: "expected a non-negative vertex index, got " + strconv.Quote(string(t.s))}
	}
	return v, nil
}

// parseDIMACSVertexBytes parses a 1-based endpoint and range-checks it
// against the declared vertex count.
func parseDIMACSVertexBytes(t btok, line, n int) (int, *ParseError) {
	v, ok := parseIntBytes(t.s)
	if !ok || v < 1 {
		return 0, &ParseError{Line: line, Col: t.col,
			Msg: "expected a 1-based vertex index, got " + strconv.Quote(string(t.s))}
	}
	if v > n {
		return 0, &ParseError{Line: line, Col: t.col,
			Msg: "vertex " + strconv.Itoa(v) + " out of range [1," + strconv.Itoa(n) + "] declared by the problem line"}
	}
	return v, nil
}
