// Package teardown exercises the teardown analyzer, including a
// reconstruction of the PR 2 double-close bug.
package teardown

import "transport"

// adHocClose reconstructs the PR 2 shape: each party closes the shared conn
// on its own error path, double-closing the pair and stranding the peer.
func adHocClose(c transport.Conn, err error) {
	if err != nil {
		c.Close() // want `outside the lifecycle helpers`
	}
}

// RunParties is an approved lifecycle helper: it owns both conns.
func RunParties(a, b transport.Conn) {
	a.Close()
	b.Close()
}

type session struct {
	c transport.Conn
}

// Close is a close-once wrapper: direct closes are its job.
func (s *session) Close() error {
	return s.c.Close()
}

// adHocWrapperClose closes through the concrete fault-injection wrapper:
// the wrapper delegates Close to the conn it wraps, so this is the same
// ad-hoc close as adHocClose, laundered through a concrete type.
func adHocWrapperClose(fc *transport.FaultConn, err error) {
	if err != nil {
		fc.Close() // want `outside the lifecycle helpers`
	}
}

// adHocStreamClose is the same shape through the stream-recovery wrapper.
func adHocStreamClose(sc *transport.StreamConn) {
	sc.Close() // want `outside the lifecycle helpers`
}

// CloseSession is the group's sanctioned retire-one-session path: it owns
// the close (and the lost-session bookkeeping that goes with it).
func CloseSession(c transport.Conn) {
	c.Close()
}

// RunShardRoot is the sharded-run owner (PR 10): on the first error it
// closes every feature-party conn and every shard link, so one lost shard
// surfaces as one typed failure instead of k cascades.
func RunShardRoot(as []transport.Conn, ctl transport.Conn) {
	for _, c := range as {
		c.Close()
	}
	ctl.Close()
}

// HandshakeAll is the concurrent key exchange: a failed exchange closes
// every conn so no other exchange stays blocked on a refused peer.
func HandshakeAll(cs ...transport.Conn) {
	for _, c := range cs {
		c.Close()
	}
}

// shardCleanup is not an owner: tearing down a shard link outside
// RunShardRoot re-creates the cascade the single-owner rule prevents.
func shardCleanup(ctl transport.Conn, err error) {
	if err != nil {
		ctl.Close() // want `outside the lifecycle helpers`
	}
}

func fireAndForget(c transport.Conn, v interface{}) {
	go func() {
		c.Send(v) // want `discards the Send error`
	}()
	go func() {
		var r int
		_ = c.Recv(&r) // want `discards the Recv error`
	}()
}

// supervised surfaces transport errors on a channel: the approved shape.
func supervised(c transport.Conn, v interface{}) <-chan error {
	errs := make(chan error, 1)
	go func() {
		errs <- c.Send(v)
	}()
	return errs
}

// handled checks the error inline: also fine.
func handled(c transport.Conn, v interface{}, fail func(error)) {
	go func() {
		if err := c.Send(v); err != nil {
			fail(err)
		}
	}()
}
