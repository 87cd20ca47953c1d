package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
)

// PackedGraph is the delta+varint compressed graph backing: the adjacency
// lives as per-node uvarint-encoded byte runs (see the format comment in
// format.go) and every other column stays flat, so the whole structure
// serves either from heap slices (compressed snapshot opened with OpenFile)
// or zero-copy from an mmap'd snapshot (OpenMapped). It implements
// graph.Store: Degree and ListOffset stay O(1) through the retained element
// offsets; NeighborsInto decodes one list into caller scratch in O(degree).
//
// A PackedGraph is immutable and safe for concurrent readers as long as each
// goroutine uses its own scratch buffers, exactly like a heap *Graph.
type PackedGraph struct {
	n       int
	edges   int
	offsets []int32 // CSR element offsets, len n+1
	packOff []int64 // per-node byte offsets into blob, len n+1
	blob    []byte  // uvarint-encoded neighbor deltas
	textOff []int32
	text    []int32
	numDim  int
	num     []float64
	dict    *graph.Dict
}

var _ graph.Store = (*PackedGraph)(nil)

// newPackedGraph assembles a PackedGraph from decoded (or mapped) sections,
// checking only the O(1) shape invariants that keep accessors memory-safe.
// Heap opens follow up with validate(); mapped opens trust write-time
// validation (the mapped-boot contract, same as graph.FromRawTrusted).
func newPackedGraph(meta v2Meta, offsets []int32, packOff []int64, blob []byte,
	textOff []int32, text []int32, num []float64, names []string) (*PackedGraph, error) {
	n := meta.n
	if len(offsets) != n+1 || offsets[0] != 0 || int(offsets[n]) != 2*meta.edges {
		return nil, fmt.Errorf("store: packed: offsets span [%d,%d], want [0,%d]",
			offsets[0], offsets[n], 2*meta.edges)
	}
	if len(packOff) != n+1 || packOff[0] != 0 || packOff[n] != int64(len(blob)) {
		return nil, fmt.Errorf("store: packed: blob offsets span [%d,%d], payload %d bytes",
			packOff[0], packOff[n], len(blob))
	}
	if len(textOff) != n+1 || textOff[0] != 0 || int(textOff[n]) != len(text) {
		return nil, fmt.Errorf("store: packed: text offsets span [%d,%d], payload %d",
			textOff[0], textOff[n], len(text))
	}
	if len(num) != n*meta.numDim {
		return nil, fmt.Errorf("store: packed: len(num) = %d, want %d·%d", len(num), n, meta.numDim)
	}
	dict, err := graph.NewDictFromNames(names)
	if err != nil {
		return nil, err
	}
	return &PackedGraph{
		n: n, edges: meta.edges,
		offsets: offsets, packOff: packOff, blob: blob,
		textOff: textOff, text: text,
		numDim: meta.numDim, num: num,
		dict: dict,
	}, nil
}

// validate decodes every neighbor list once and checks the structural
// invariants a heap open guarantees: per-node byte runs consume exactly
// their span, lists strictly ascending, neighbors in range, no self-loops,
// element offsets monotone. O(n+m); the mapped open skips it by design.
func (p *PackedGraph) validate() error {
	var buf []graph.NodeID
	for v := 0; v < p.n; v++ {
		if p.offsets[v+1] < p.offsets[v] {
			return fmt.Errorf("packed: offsets decreasing at node %d", v)
		}
		if p.packOff[v+1] < p.packOff[v] {
			return fmt.Errorf("packed: blob offsets decreasing at node %d", v)
		}
		if p.textOff[v+1] < p.textOff[v] {
			return fmt.Errorf("packed: text offsets decreasing at node %d", v)
		}
		ns, err := p.neighborsChecked(&buf, graph.NodeID(v))
		if err != nil {
			return err
		}
		prev := graph.NodeID(-1)
		for _, u := range ns {
			switch {
			case int(u) < 0 || int(u) >= p.n:
				return fmt.Errorf("packed: node %d: neighbor %d out of range [0,%d)", v, u, p.n)
			case u == graph.NodeID(v):
				return fmt.Errorf("packed: node %d: self-loop", v)
			case u <= prev:
				return fmt.Errorf("packed: node %d: neighbors not sorted/unique at %d", v, u)
			}
			prev = u
		}
		for i, id := range p.text[p.textOff[v]:p.textOff[v+1]] {
			if int(id) < 0 || int(id) >= p.dict.Len() {
				return fmt.Errorf("packed: node %d: token %d outside dictionary", v, id)
			}
			if i > 0 && id <= p.text[int(p.textOff[v])+i-1] {
				return fmt.Errorf("packed: node %d: tokens not sorted/unique", v)
			}
		}
	}
	return nil
}

// neighborsChecked is NeighborsInto with malformed-varint detection, used
// only by validate — the hot path assumes validated bytes.
func (p *PackedGraph) neighborsChecked(buf *[]graph.NodeID, v graph.NodeID) ([]graph.NodeID, error) {
	deg := int(p.offsets[v+1] - p.offsets[v])
	out := ensureCap(buf, deg)
	b := p.blob[p.packOff[v]:p.packOff[v+1]]
	prev := int64(0)
	for i := 0; i < deg; i++ {
		d, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, fmt.Errorf("packed: node %d: bad varint at neighbor %d", v, i)
		}
		b = b[k:]
		if i == 0 {
			prev = int64(d)
		} else {
			prev += int64(d)
		}
		out[i] = graph.NodeID(prev)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("packed: node %d: %d trailing bytes in neighbor run", v, len(b))
	}
	return out, nil
}

func ensureCap(buf *[]graph.NodeID, n int) []graph.NodeID {
	if cap(*buf) < n {
		*buf = make([]graph.NodeID, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// NumNodes implements graph.Adjacency.
func (p *PackedGraph) NumNodes() int { return p.n }

// NumEdges implements graph.Adjacency.
func (p *PackedGraph) NumEdges() int { return p.edges }

// Degree implements graph.Adjacency in O(1) via the element offsets.
func (p *PackedGraph) Degree(v graph.NodeID) int {
	return int(p.offsets[v+1] - p.offsets[v])
}

// ListOffset implements graph.CSR: the element offsets are stored verbatim,
// so positional edge IDs match the equivalent heap CSR exactly.
func (p *PackedGraph) ListOffset(v graph.NodeID) int32 { return p.offsets[v] }

// NeighborsInto implements graph.Adjacency by decoding v's delta+uvarint run
// into *buf (growing it as needed) — O(degree), zero allocation once the
// scratch has warmed up.
func (p *PackedGraph) NeighborsInto(buf *[]graph.NodeID, v graph.NodeID) []graph.NodeID {
	deg := int(p.offsets[v+1] - p.offsets[v])
	out := ensureCap(buf, deg)
	b := p.blob[p.packOff[v]:p.packOff[v+1]]
	prev := int64(0)
	for i := 0; i < deg; i++ {
		d, k := binary.Uvarint(b)
		b = b[k:]
		if i == 0 {
			prev = int64(d)
		} else {
			prev += int64(d)
		}
		out[i] = graph.NodeID(prev)
	}
	return out
}

// HasEdge implements graph.Adjacency by streaming the shorter endpoint's run
// with an early exit — the deltas are ≥1, so the decoded values ascend.
func (p *PackedGraph) HasEdge(u, v graph.NodeID) bool {
	if p.Degree(u) > p.Degree(v) {
		u, v = v, u
	}
	b := p.blob[p.packOff[u]:p.packOff[u+1]]
	deg := p.Degree(u)
	prev := int64(0)
	for i := 0; i < deg; i++ {
		d, k := binary.Uvarint(b)
		b = b[k:]
		if i == 0 {
			prev = int64(d)
		} else {
			prev += int64(d)
		}
		switch {
		case prev == int64(v):
			return true
		case prev > int64(v):
			return false
		}
	}
	return false
}

// NumDim implements graph.AttrSource.
func (p *PackedGraph) NumDim() int { return p.numDim }

// TextAttrs implements graph.AttrSource; the slice aliases backing storage.
func (p *PackedGraph) TextAttrs(v graph.NodeID) []int32 {
	return p.text[p.textOff[v]:p.textOff[v+1]]
}

// NumAttrs implements graph.AttrSource; the slice aliases backing storage.
func (p *PackedGraph) NumAttrs(v graph.NodeID) []float64 {
	if p.numDim == 0 {
		return nil
	}
	return p.num[int(v)*p.numDim : (int(v)+1)*p.numDim]
}

// Dict implements graph.AttrSource.
func (p *PackedGraph) Dict() *graph.Dict { return p.dict }

// PackedBytes returns the compressed adjacency payload size in bytes,
// against 4·2·NumEdges for the flat encoding.
func (p *PackedGraph) PackedBytes() int64 { return int64(len(p.blob)) }
