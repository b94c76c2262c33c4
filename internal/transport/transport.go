// Package transport abstracts how MIND nodes exchange encoded wire
// messages and observe time. Two implementations exist: simnet, a
// deterministic discrete-event network with a configurable wide-area
// latency model (every experiment and test runs on it), and tcpnet, a
// real TCP transport for multi-process deployment.
//
// The abstraction is deliberately datagram-like and asynchronous: Send
// never blocks on the receiver and delivery is not guaranteed. MIND's
// protocol layers (retries, heartbeats, dead-end detours) own
// reliability, exactly as the paper's prototype owns it above raw
// connections.
package transport

import "time"

// Handler consumes one received message. Implementations of Endpoint
// may invoke it from internal goroutines; receivers must synchronize
// their own state.
type Handler func(from string, msg []byte)

// Endpoint is one node's attachment to the network.
type Endpoint interface {
	// Addr returns this endpoint's stable address.
	Addr() string
	// Send queues msg for delivery to the endpoint addressed by to.
	// It returns an error only for immediately-detectable failures
	// (closed endpoint, unknown peer on a connected transport). A
	// message may be lost, delayed or reordered in transit, but is
	// delivered at most once: no implementation re-sends a frame. The
	// replica store relies on this — a replicate run carries no ids, so
	// a frame delivered twice would store its records twice.
	Send(to string, msg []byte) error
	// SetHandler installs the receive callback. Must be called before
	// any delivery is expected.
	SetHandler(h Handler)
	// Close detaches the endpoint; further sends fail and deliveries
	// stop.
	Close() error
}

// Timer is a cancelable pending callback.
type Timer interface {
	// Stop cancels the timer if it has not fired; it reports whether the
	// call prevented the callback from running.
	Stop() bool
}

// Clock abstracts time so protocol code runs identically under the
// virtual clock of the simulator and the real clock of a deployment.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// AfterFunc schedules f to run after d. f runs on the clock's
	// dispatch context (the simulator event loop, or a timer goroutine).
	AfterFunc(d time.Duration, f func()) Timer
}

// RealClock adapts the standard library clock.
type RealClock struct{}

// Now returns time.Now().
func (RealClock) Now() time.Time { return time.Now() }

// AfterFunc wraps time.AfterFunc.
func (RealClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }
