package protocol

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"blindfl/internal/hetensor"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// TestShardPlanRanges pins the contiguous base/remainder partition: ranges
// tile [0, Sessions) in order, widths follow the SplitCols rule, and Owner
// agrees with Range for every session.
func TestShardPlanRanges(t *testing.T) {
	for sessions := 1; sessions <= 9; sessions++ {
		for shards := 1; shards <= sessions; shards++ {
			p := ShardPlan{Sessions: sessions, Shards: shards}
			if err := p.Validate(); err != nil {
				t.Fatalf("Validate(%d/%d) = %v", sessions, shards, err)
			}
			next := 0
			base, rem := sessions/shards, sessions%shards
			for s := 0; s < shards; s++ {
				lo, hi := p.Range(s)
				if lo != next {
					t.Fatalf("plan %d/%d: shard %d starts at %d, want %d", sessions, shards, s, lo, next)
				}
				want := base
				if s < rem {
					want++
				}
				if hi-lo != want || p.Width(s) != want {
					t.Fatalf("plan %d/%d: shard %d owns %d sessions, want %d", sessions, shards, s, hi-lo, want)
				}
				for i := lo; i < hi; i++ {
					if p.Owner(i) != s {
						t.Fatalf("plan %d/%d: Owner(%d) = %d, want %d", sessions, shards, i, p.Owner(i), s)
					}
				}
				next = hi
			}
			if next != sessions {
				t.Fatalf("plan %d/%d: ranges cover [0,%d), want [0,%d)", sessions, shards, next, sessions)
			}
		}
	}
}

func TestShardPlanValidate(t *testing.T) {
	for _, p := range []ShardPlan{{0, 1}, {1, 0}, {2, 3}} {
		if p.Validate() == nil {
			t.Errorf("Validate(%+v) accepted an unrealizable plan", p)
		}
	}
}

// shardEcho runs a minimal worker-side connect on the worker half of a
// control pair: accept the hello, then the setup blob, acking the given
// computed fingerprint.
func shardEcho(t *testing.T, ctl transport.Conn, computed func(hello uint64) uint64) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		link, hello, err := AcceptShard(ctl)
		if err != nil {
			done <- err
			return
		}
		if _, err := link.RecvSetup(); err != nil {
			done <- err
			return
		}
		done <- link.AckSetup(computed(hello.Fingerprint), hello.Fingerprint)
	}()
	return done
}

// TestShardSetupFingerprintMismatch drives the two-phase fingerprint check:
// a worker whose recomputed schedule fingerprint disagrees with the root's
// is refused typed on BOTH ends — ErrShardMismatch from ShardGroup.Setup at
// the root, ErrShardMismatch from AckSetup at the worker — before any
// training traffic.
func TestShardSetupFingerprintMismatch(t *testing.T) {
	plan := ShardPlan{Sessions: 2, Shards: 1}
	rc, wc := transport.Pair(64)
	done := shardEcho(t, wc, func(hello uint64) uint64 { return hello ^ 1 })
	sg, err := ConnectShards(plan, 42, func(int) (transport.Conn, error) { return rc, nil })
	if err != nil {
		t.Fatalf("ConnectShards: %v", err)
	}
	defer sg.Close()
	if err := sg.Setup(0, "setup", []byte("doc"), 42); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("root Setup error = %v, want ErrShardMismatch", err)
	}
	if err := <-done; !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("worker AckSetup error = %v, want ErrShardMismatch", err)
	}
}

// TestShardSetupFingerprintAgree is the happy path of the same exchange.
func TestShardSetupFingerprintAgree(t *testing.T) {
	plan := ShardPlan{Sessions: 3, Shards: 1}
	rc, wc := transport.Pair(64)
	done := shardEcho(t, wc, func(hello uint64) uint64 { return hello })
	sg, err := ConnectShards(plan, 7, func(int) (transport.Conn, error) { return rc, nil })
	if err != nil {
		t.Fatalf("ConnectShards: %v", err)
	}
	defer sg.Close()
	if err := sg.Setup(0, "setup", []byte("doc"), 7); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
}

// TestShardLinkSeqDesync pins the lockstep sequence counters: a data-plane
// message with the wrong ordinal fails typed ErrShardMismatch, not silently
// merged.
func TestShardLinkSeqDesync(t *testing.T) {
	rc, wc := transport.Pair(64)
	defer rc.Close()
	defer wc.Close()
	root := &ShardLink{Shard: 0, Conn: rc}
	worker := &ShardLink{Shard: 0, Conn: wc}
	z := tensor.NewDense(1, 1)
	err := Catch("root", func() {
		worker.Send(&transport.ShardParts{Seq: 5, Zs: []*tensor.Dense{z}})
		root.RecvParts(1, 1, 1)
	})
	if !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("desynced parts error = %v, want ErrShardMismatch", err)
	}
}

// TestShardLinkLostTyped pins the loss typing: a dead conn under a link
// surfaces as ErrShardLost, with the transport cause flattened so it cannot
// be matched as ErrClosed by mistake.
func TestShardLinkLostTyped(t *testing.T) {
	rc, wc := transport.Pair(64)
	wc.Close()
	root := &ShardLink{Shard: 0, Conn: rc}
	err := Catch("root", func() { root.RecvParts(1, 1, 1) })
	if !errors.Is(err, ErrShardLost) {
		t.Fatalf("lost link error = %v, want ErrShardLost", err)
	}
	if errors.Is(err, transport.ErrClosed) {
		t.Fatalf("lost link error %v still matches ErrClosed; the cascade could outrank the loss", err)
	}
}

// TestRunShardRootSingleTypedLoss pins the cascade suppression: when one
// party reports the typed shard loss and every other party fails with the
// ErrClosed cascade the teardown provokes, RunShardRoot reports exactly the
// loss.
func TestRunShardRootSingleTypedLoss(t *testing.T) {
	skA, _ := TestKeys()
	as := make([]*Peer, 2)
	for i := range as {
		a, b := transport.Pair(4)
		defer b.Close()
		as[i] = NewPeer(PartyA, a, skA, SessionRNG(1, i, PartyA))
	}
	sg := &ShardGroup{Plan: ShardPlan{Sessions: 2, Shards: 1}}
	lost := fmt.Errorf("%w: shard 0 recv parts: conn broke", ErrShardLost)
	cascade := fmt.Errorf("session recv: %w", transport.ErrClosed)
	err := RunShardRoot(as, sg,
		func(i int) error { return cascade },
		func() error { return lost })
	if !errors.Is(err, ErrShardLost) {
		t.Fatalf("RunShardRoot = %v, want the one typed ErrShardLost", err)
	}
	if errors.Is(err, transport.ErrClosed) {
		t.Fatalf("RunShardRoot = %v; the cascade leaked into the reported error", err)
	}
}

// TestRunShardRootPrefersRealErrorOverCascade: with no typed loss, the first
// non-ErrClosed error wins over the cascades.
func TestRunShardRootPrefersRealErrorOverCascade(t *testing.T) {
	skA, _ := TestKeys()
	a, b := transport.Pair(4)
	defer b.Close()
	as := []*Peer{NewPeer(PartyA, a, skA, SessionRNG(1, 0, PartyA))}
	sg := &ShardGroup{Plan: ShardPlan{Sessions: 1, Shards: 1}}
	real := errors.New("restore failed: bad checkpoint blob")
	err := RunShardRoot(as, sg,
		func(i int) error { return fmt.Errorf("recv: %w", transport.ErrClosed) },
		func() error { return real })
	if !errors.Is(err, real) {
		t.Fatalf("RunShardRoot = %v, want the real error %v", err, real)
	}
}

// TestRunShardRootSuccess: nil errors all around return nil and leave the
// conns open for the caller's orderly close.
func TestRunShardRootSuccess(t *testing.T) {
	sg := &ShardGroup{Plan: ShardPlan{Sessions: 1, Shards: 1}}
	err := RunShardRoot(nil, sg, func(int) error { return nil }, func() error { return nil })
	if err != nil {
		t.Fatalf("RunShardRoot = %v, want nil", err)
	}
}

// TestAcceptSessionsValidates drives the session-accept checks: wrong
// fingerprint, foreign session index and duplicate session all refuse typed.
func TestAcceptSessionsValidates(t *testing.T) {
	plan := ShardPlan{Sessions: 4, Shards: 2}
	cases := []struct {
		name   string
		hellos []transport.SessionHello
	}{
		{"fingerprint", []transport.SessionHello{{Session: 2, Fingerprint: 99}}},
		{"foreign session", []transport.SessionHello{{Session: 0, Fingerprint: 7}}},
		{"duplicate", []transport.SessionHello{{Session: 2, Fingerprint: 7}, {Session: 2, Fingerprint: 7}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pending := tc.hellos
			w := &WorkerConns{}
			defer w.Close()
			_, err := AcceptSessions(func() (transport.Conn, error) {
				if len(pending) == 0 {
					return nil, errors.New("out of conns")
				}
				h := pending[0]
				pending = pending[1:]
				a, b := transport.Pair(4)
				l := ShardLink{Conn: a}
				if err := l.sendSealed(&h); err != nil {
					return nil, err
				}
				return b, nil
			}, plan, 1, 7, w)
			if !errors.Is(err, ErrShardMismatch) {
				t.Fatalf("AcceptSessions error = %v, want ErrShardMismatch", err)
			}
		})
	}
}

// TestChaosShardPayloadVetted sends data-plane messages whose payloads do not
// fit the batch — a missing partial, gradient or share entry, a mis-shaped
// matrix, a backing slice of the wrong length, a share at the wrong scale —
// and requires each receive to fail typed ErrCorrupt naming the shard and the
// ordinal, where summing the payload would have dropped a session silently or
// panicked the process. The honest payload of each kind passes.
func TestChaosShardPayloadVetted(t *testing.T) {
	const rows, cols = 2, 3
	dense := func(r, c, n int) *tensor.Dense { return &tensor.Dense{Rows: r, Cols: c, Data: make([]float64, n)} }
	share := func(r, c int, scale uint, nilAt int) *hetensor.BigMatrix {
		m := hetensor.NewBigMatrix(r, c, scale)
		if nilAt >= 0 {
			m.V[nilAt] = nil
		}
		return m
	}
	ok := dense(rows, cols, rows*cols)
	parts := func(l *ShardLink) { l.RecvParts(2, rows, cols) }
	grad := func(l *ShardLink) { l.RecvGrad(rows, cols) }
	shares := func(l *ShardLink) { l.RecvShare(cols, rows, 2) }
	cases := []struct {
		name string
		msg  any
		recv func(l *ShardLink)
		bad  bool
	}{
		{"parts honest", &transport.ShardParts{Zs: []*tensor.Dense{ok, ok}}, parts, false},
		{"parts nil partial", &transport.ShardParts{Zs: []*tensor.Dense{ok, nil}}, parts, true},
		{"parts wrong rows", &transport.ShardParts{Zs: []*tensor.Dense{ok, dense(rows+1, cols, (rows+1)*cols)}}, parts, true},
		{"parts wrong cols", &transport.ShardParts{Zs: []*tensor.Dense{dense(rows, 1, rows), ok}}, parts, true},
		{"parts short backing", &transport.ShardParts{Zs: []*tensor.Dense{ok, dense(rows, cols, 1)}}, parts, true},
		{"parts long backing", &transport.ShardParts{Zs: []*tensor.Dense{dense(rows, cols, 99), ok}}, parts, true},
		{"grad honest", &transport.ShardGrad{G: ok}, grad, false},
		{"grad missing", &transport.ShardGrad{}, grad, true},
		{"grad mis-shaped", &transport.ShardGrad{G: dense(cols, rows, rows*cols)}, grad, true},
		{"grad short backing", &transport.ShardGrad{G: dense(rows, cols, 0)}, grad, true},
		{"share honest", &transport.ShardShare{S: share(cols, rows, 2, -1)}, shares, false},
		{"share missing", &transport.ShardShare{}, shares, true},
		{"share wrong scale", &transport.ShardShare{S: share(cols, rows, 1, -1)}, shares, true},
		{"share mis-shaped", &transport.ShardShare{S: share(rows, cols, 2, -1)}, shares, true},
		{"share nil entry", &transport.ShardShare{S: share(cols, rows, 2, 4)}, shares, true},
		{"share short entries", &transport.ShardShare{S: &hetensor.BigMatrix{Rows: cols, Cols: rows, Scale: 2}}, shares, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rc, wc := transport.Pair(4)
			defer rc.Close()
			defer wc.Close()
			root := &ShardLink{Shard: 3, Conn: rc}
			(&ShardLink{Conn: wc}).Send(c.msg)
			err := Catch("root", func() { c.recv(root) })
			if !c.bad {
				if err != nil {
					t.Fatalf("honest payload refused: %v", err)
				}
				return
			}
			if !errors.Is(err, transport.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			if msg := err.Error(); !strings.Contains(msg, "shard 3") || !strings.Contains(msg, "seq 0") {
				t.Fatalf("err = %q does not name shard 3 and seq 0", msg)
			}
		})
	}
}
