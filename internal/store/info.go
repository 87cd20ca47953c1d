package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// SnapshotInfo describes an on-disk snapshot without opening it: format
// version, section layout, and the properties that decide how it can serve.
// The zero value (Version 0) means "not a snapshot file".
type SnapshotInfo struct {
	// Version is the snapshot format version (Version for every file this
	// build reads), or 0 when the file is not a snapshot.
	Version int `json:"version"`
	// Sections lists the section names in file order.
	Sections []string `json:"sections,omitempty"`
	// Aligned reports the 8-byte-aligned layout OpenMapped serves zero-copy
	// (every snapshot this build writes or reads).
	Aligned bool `json:"aligned"`
	// Compressed reports delta+varint compressed adjacency.
	Compressed bool `json:"compressed"`
	// Index reports a precomputed admission-index section.
	Index bool `json:"index"`
	// Bytes is the file size.
	Bytes int64 `json:"bytes"`
}

// IsSnapshot reports whether the file was a snapshot at all.
func (i SnapshotInfo) IsSnapshot() bool { return i.Version != 0 }

// String renders the info for CLI output.
func (i SnapshotInfo) String() string {
	if !i.IsSnapshot() {
		return "not a snapshot"
	}
	props := make([]string, 0, 4)
	if i.Aligned {
		props = append(props, "aligned")
	}
	if i.Compressed {
		props = append(props, "compressed")
	}
	if i.Index {
		props = append(props, "index")
	}
	desc := ""
	if len(props) > 0 {
		desc = " " + strings.Join(props, ",")
	}
	if len(i.Sections) > 0 {
		return fmt.Sprintf("snapshot v%d%s (%d sections, %d bytes)", i.Version, desc, len(i.Sections), i.Bytes)
	}
	return fmt.Sprintf("snapshot v%d%s (%d bytes)", i.Version, desc, i.Bytes)
}

// DetectFile inspects the file at path and describes what kind of snapshot
// it is, reading only the header and the section table — never the
// payload. A file that is not a snapshot (e.g. the text exchange format)
// returns the zero SnapshotInfo with a nil error; only I/O failures,
// structurally broken snapshot headers and versions this build does not
// read (cserr.ErrSnapshotVersion) error.
func DetectFile(path string) (SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return SnapshotInfo{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return SnapshotInfo{}, err
	}
	size := st.Size()
	head := make([]byte, min(size, int64(v2HeaderLen+v2MaxSections*v2TableEntry)))
	if _, err := io.ReadFull(f, head); err != nil {
		return SnapshotInfo{}, nil // shorter than its own header: not a snapshot
	}
	if len(head) < 12 || *(*[8]byte)(head[:8]) != magic {
		return SnapshotInfo{}, nil
	}
	if v := binary.LittleEndian.Uint32(head[8:]); v != Version {
		return SnapshotInfo{Version: int(v), Bytes: size}, fmt.Errorf("%s: %w", path, versionError(v))
	}
	flags, secs, err := parseV2Table(head, size)
	if err != nil {
		return SnapshotInfo{Version: Version, Bytes: size}, err
	}
	return SnapshotInfo{
		Version:    Version,
		Sections:   sectionList(secs),
		Aligned:    true,
		Compressed: flags&flagCompressed != 0,
		Index:      flags&flagIndex != 0,
		Bytes:      size,
	}, nil
}
