// Package store persists the full serving state of an attributed graph — the
// CSR arrays, the attribute dictionary, the text/numeric attribute columns,
// and the Engine's precomputed admission indexes — as one versioned,
// checksummed binary snapshot. A snapshot reopens into a ready-to-serve
// graph + index with zero parsing and zero recomputation, which is what
// makes boot-fast multi-dataset serving (internal/catalog) possible: the
// text exchange format of internal/dataset is the interchange form, the
// snapshot is the serving form.
//
// There is one on-disk layout: an aligned section table whose payloads sit
// at 8-byte-aligned file offsets (format.go documents it byte by byte).
// OpenMapped serves it zero-copy from the page cache; WriteSnapshot can
// optionally store the adjacency delta+varint compressed (PackedGraph).
// Files of the retired version-1 stream fail every open with
// cserr.ErrSnapshotVersion; repack them from their text source with
// seacli pack.
//
// # Guarantees
//
// WriteSnapshot produces a deterministic byte stream for a given graph,
// index and layout. Open, OpenFile and Decode verify the magic and version
// (cserr.ErrSnapshotVersion on mismatch), the trailing checksum, and the
// structural invariants of every array (offsets monotone, adjacency
// sorted/symmetric/loop-free, tokens within the dictionary — see
// graph.FromRaw); any violation reports cserr.ErrSnapshotCorrupt. A
// snapshot that opens without error is semantically identical to the state
// that was written: the same query yields a byte-identical outcome.
// OpenMapped checks only the header and section table, so boot stays
// O(header + dictionary); Mounted.Verify runs the full checks over a
// mapping when the bytes came from somewhere untrusted.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/cserr"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/graph"
)

// Version is the snapshot format version this build reads and writes.
const Version = 2

// magic identifies a snapshot stream; it is deliberately not valid UTF-8
// text so the text-format loader can never misread one.
var magic = [8]byte{'S', 'E', 'A', 'S', 'N', 'A', 'P', 0}

const flagIndex = 1 << 0

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Index is the serializable form of the Engine's precomputed per-graph
// state: the structural admission indexes and the attribute-metric
// normalization table. NodeTruss may be nil (the engine builds it lazily);
// NormMin/NormMax have the graph's NumDim width.
type Index struct {
	// Coreness holds each node's coreness, len NumNodes.
	Coreness []int32
	// NodeTruss holds each node's maximum incident-edge trussness, len
	// NumNodes, or nil when the truss index was never built.
	NodeTruss []int32
	// NormMin/NormMax are the per-dimension numerical attribute bounds the
	// metric normalizer scales by, len NumDim.
	NormMin, NormMax []float64
}

// Snapshot is the reopened serving state: the graph backing and, when the
// snapshot carried one, the precomputed index.
type Snapshot struct {
	// Graph is the heap CSR graph, or nil when the backing is not a
	// materialized *graph.Graph (a compressed open serves a PackedGraph —
	// use Store, or graph.CopyStore to materialize).
	Graph *graph.Graph
	// Store is the serving backing every open path fills: identical to
	// Graph for heap CSR opens, a *PackedGraph for compressed ones.
	Store graph.Store
	Index *Index // nil when the snapshot has no index section
	// Info describes the on-disk form the snapshot came from (zero value
	// for text-format opens).
	Info SnapshotInfo
}

// Backing returns the serving store of the snapshot, tolerating
// hand-assembled Snapshots that only set Graph.
func (s *Snapshot) Backing() graph.Store {
	if s.Store != nil {
		return s.Store
	}
	if s.Graph != nil {
		return s.Graph
	}
	return nil
}

// Open reads one snapshot from r, verifying version, checksum and structure,
// and returns the ready-to-serve graph + index. Errors classify as
// cserr.ErrSnapshotVersion (wrong magic or version) or
// cserr.ErrSnapshotCorrupt (anything else wrong with the bytes).
func Open(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: read: %w", err)
	}
	return Decode(data)
}

// OpenFile opens the snapshot at path. Unlike Open over an arbitrary
// reader, the file's size is known up front, so the bytes are read in one
// pre-sized allocation.
func OpenFile(path string) (*Snapshot, error) {
	if err := faults.Check("snapshot.open"); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// OpenGraphFile opens a graph file in either on-disk form, sniffing the
// snapshot magic to pick the decoder: a packed snapshot opens with its
// index, anything else parses as the text exchange format (Index nil). It
// is the one open-either-format path shared by the catalog and the CLI.
// (MountGraphFile is the zero-copy sibling.)
func OpenGraphFile(path string) (*Snapshot, error) {
	info, err := DetectFile(path)
	if err != nil {
		return nil, err
	}
	if info.IsSnapshot() {
		return OpenFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := dataset.LoadGraph(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Snapshot{Graph: g, Store: g}, nil
}

// Decode is Open over bytes already in memory.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+8+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any snapshot", cserr.ErrSnapshotCorrupt, len(data))
	}
	var head [8]byte
	copy(head[:], data)
	if head != magic {
		return nil, fmt.Errorf("%w: bad magic (not a snapshot file)", cserr.ErrSnapshotVersion)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		return nil, versionError(v)
	}
	return decodeV2(data)
}

// versionError reports a snapshot version this build does not read. A
// retired v1 file names the way back: its writer and reader are gone, so it
// is repacked from the text source it was packed from.
func versionError(v uint32) error {
	if v == 1 {
		return fmt.Errorf("%w: format v1 is no longer read; repack it from its text source with seacli pack",
			cserr.ErrSnapshotVersion)
	}
	return fmt.Errorf("%w: version %d, this build reads %d", cserr.ErrSnapshotVersion, v, Version)
}

// encoder writes fixed-width little-endian values, latching the first error.
type encoder struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (e *encoder) bytes(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	e.bytes(e.buf[:4])
}

func (e *encoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	e.bytes(e.buf[:8])
}

// i32s writes a whole int32 slice through one scratch buffer, chunked so
// large arrays do not double resident memory.
func (e *encoder) i32s(xs []int32) {
	const chunk = 16 * 1024
	buf := make([]byte, 0, 4*min(len(xs), chunk))
	for len(xs) > 0 && e.err == nil {
		nn := min(len(xs), chunk)
		buf = buf[:4*nn]
		for i, x := range xs[:nn] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
		}
		e.bytes(buf)
		xs = xs[nn:]
	}
}

func (e *encoder) f64s(xs []float64) {
	const chunk = 8 * 1024
	buf := make([]byte, 0, 8*min(len(xs), chunk))
	for len(xs) > 0 && e.err == nil {
		nn := min(len(xs), chunk)
		buf = buf[:8*nn]
		for i, x := range xs[:nn] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
		}
		e.bytes(buf)
		xs = xs[nn:]
	}
}

// i64s is i32s for int64 values.
func (e *encoder) i64s(xs []int64) {
	const chunk = 8 * 1024
	buf := make([]byte, 0, 8*min(len(xs), chunk))
	for len(xs) > 0 && e.err == nil {
		nn := min(len(xs), chunk)
		buf = buf[:8*nn]
		for i, x := range xs[:nn] {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(x))
		}
		e.bytes(buf)
		xs = xs[nn:]
	}
}
