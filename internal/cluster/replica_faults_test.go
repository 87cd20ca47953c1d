package cluster

// Fault-injection tests for replication: a snapshot stream severed
// mid-transfer must fail the bootstrap cleanly — no partially-mounted
// dataset, no stray snapshot file — and the next attempt must succeed; a
// snapshot damaged in flight must never be mounted, not even mapped.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cserr"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/mutate"
)

// TestBootstrapSeveredStreamFailsCleanThenSucceeds severs the replication
// snapshot body halfway through the transfer (server side, after the
// headers and Content-Length are already out — the nastiest spot).
func TestBootstrapSeveredStreamFailsCleanThenSucceeds(t *testing.T) {
	_, pts := newPrimary(t)
	cat := catalog.New()
	t.Cleanup(func() { cat.Close() })
	dir := t.TempDir()
	fol := NewFollower(cat, pts.URL, dir, engine.DefaultConfig(), 0)

	faults.Enable(11, faults.Spec{Site: "replicate.stream", Count: 1, Partial: true, Err: "reset"})
	defer faults.Disable()

	if err := fol.Bootstrap(context.Background()); err == nil {
		t.Fatal("bootstrap over a severed snapshot stream reported success")
	}
	// Clean failure: nothing mounted, and the atomic snapshot write left no
	// partial file a later mount could trip over.
	if n := len(cat.Names()); n != 0 {
		t.Fatalf("severed bootstrap left %d dataset(s) mounted", n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Fatalf("severed bootstrap left a stray file: %s", e.Name())
	}

	// The fault is spent: the retry bootstraps for real and the follower
	// serves the dataset.
	if err := fol.Bootstrap(context.Background()); err != nil {
		t.Fatalf("bootstrap after the severed attempt: %v", err)
	}
	if n := len(cat.Names()); n != 1 {
		t.Fatalf("post-retry datasets: %d, want 1", n)
	}
	if _, err := cat.InfoFor("g"); err != nil {
		t.Fatalf("replica dataset not serving: %v", err)
	}
}

// TestFollowerTailFaultBacksOffAndRecovers injects a burst of journal-tail
// failures and checks the follower's responses: the per-dataset LastError
// surfaces while the fault holds, consecutive failures grow the sync
// backoff, and the follower converges once the fault clears.
func TestFollowerTailFaultBacksOffAndRecovers(t *testing.T) {
	pcat, pts := newPrimary(t)
	cat := catalog.New()
	t.Cleanup(func() { cat.Close() })
	fol := NewFollower(cat, pts.URL, t.TempDir(), engine.DefaultConfig(), 10*time.Millisecond)
	if err := fol.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go fol.Run(ctx)

	// Write on the primary, then break the journal-serve path: the follower
	// sees the new version via status polls but cannot tail it.
	faults.Enable(13, faults.Spec{Site: "journal.serve", Err: "eio"})
	t.Cleanup(faults.Disable)
	if _, err := pcat.Mutate("g", attrDeltaCluster("v1")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "sync failures to accumulate", func() bool {
		_, fails := fol.SyncBackoff()
		return fails >= 2
	})
	backoff, _ := fol.SyncBackoff()
	if backoff <= 10*time.Millisecond {
		t.Fatalf("backoff %v has not grown past the poll interval", backoff)
	}
	for _, st := range fol.Status() {
		if st.LastError == "" {
			t.Fatalf("dataset %q shows no LastError while tails fail", st.Graph)
		}
	}

	// Clear the fault: the follower recovers, catches up, and the backoff
	// resets to the poll cadence.
	faults.Disable()
	waitFor(t, 10*time.Second, "follower to catch up", func() bool {
		for _, st := range fol.Status() {
			if st.Lag != 0 || st.LastError != "" {
				return false
			}
		}
		_, fails := fol.SyncBackoff()
		return fails == 0
	})
}

// attrDeltaCluster is a minimal valid mutation batch for cluster tests.
func attrDeltaCluster(tag string) []mutate.Delta {
	return []mutate.Delta{{Op: mutate.OpSetAttr, U: 0, Text: []string{tag}}}
}

// mmapExpected mirrors the store package's unix build constraint: on these
// platforms a snapshot mount that is not zero-copy is a regression.
func mmapExpected() bool {
	switch runtime.GOOS {
	case "windows", "plan9", "js", "wasip1":
		return false
	}
	return true
}

// TestBootstrapVerifiesFetchedSnapshot puts a proxy between follower and
// primary that flips one bit in the middle of every /admin/replicate body
// while armed. A mapped mount reads only the snapshot's header, so only
// verifying the fetched bytes keeps the damage out: the first bootstrap
// must fail with ErrSnapshotCorrupt and mount nothing, a clean bootstrap
// must serve mapped, and a damaged re-bootstrap must leave the running
// engine in place.
func TestBootstrapVerifiesFetchedSnapshot(t *testing.T) {
	pcat, _ := newPrimary(t)
	primary := NewNodeHandler(pcat, engine.DefaultConfig(), nil)
	var flip atomic.Bool
	flip.Store(true)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != catalog.ReplicatePath || !flip.Load() {
			primary.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		primary.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		body[len(body)/2] ^= 0x01
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(proxy.Close)

	cat := catalog.New()
	t.Cleanup(func() { cat.Close() })
	fol := NewFollower(cat, proxy.URL, t.TempDir(), engine.DefaultConfig(), 0)
	ctx := context.Background()
	if err := fol.Bootstrap(ctx); !errors.Is(err, cserr.ErrSnapshotCorrupt) {
		t.Fatalf("bootstrap over a bit-flipped snapshot: got %v, want ErrSnapshotCorrupt", err)
	}
	if n := len(cat.Names()); n != 0 {
		t.Fatalf("corrupt bootstrap mounted %d dataset(s)", n)
	}

	flip.Store(false)
	if err := fol.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	info, err := cat.InfoFor("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.Mapped != mmapExpected() {
		t.Fatalf("bootstrapped replica mapped=%v, platform expects %v", info.Mapped, mmapExpected())
	}
	serving, err := cat.Resolve("g")
	if err != nil {
		t.Fatal(err)
	}

	// Compaction on the primary moves the journal past the follower's
	// cursor, so the next sync re-bootstraps through SwapPath — over a
	// damaged snapshot again.
	if _, err := pcat.Mutate("g", []mutate.Delta{mutate.AddEdge(4, 7)}); err != nil {
		t.Fatal(err)
	}
	if _, err := pcat.Compact("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := pcat.Mutate("g", []mutate.Delta{mutate.AddEdge(4, 9)}); err != nil {
		t.Fatal(err)
	}
	flip.Store(true)
	fol.syncOnce(ctx)
	if now, _ := cat.Resolve("g"); now != serving {
		t.Fatal("a corrupt re-bootstrap replaced the serving engine")
	}
	if st := fol.Status(); len(st) != 1 || st[0].LastError == "" {
		t.Fatalf("corrupt re-bootstrap left no error in the status: %+v", st)
	}

	// Undamaged, the re-bootstrap lands and the replica still serves mapped.
	flip.Store(false)
	fol.syncOnce(ctx)
	if st := fol.Status(); len(st) != 1 || st[0].Version != 2 || st[0].Lag != 0 {
		t.Fatalf("follower status after resync: %+v", st)
	}
	if info, err := cat.InfoFor("g"); err != nil || info.Mapped != mmapExpected() {
		t.Fatalf("re-bootstrapped replica: mapped=%v err=%v, platform expects %v", info.Mapped, err, mmapExpected())
	}
}
