//go:build !linux

package live

import (
	"errors"
	"net"
)

// reactorSupported reports whether this platform has a readiness-driven
// reactor implementation. Without one, TransportConfig.Reactor resolves to
// the portable goroutine-per-link engine regardless of mode.
const reactorSupported = false

// reactor is a stub on platforms without epoll; a fabric here always runs
// with reactor == nil, so none of these methods are reachable.
type reactor struct{}

func newReactor(*fabric, int) (*reactor, error) {
	return nil, errors.New("live: reactor requires linux epoll")
}

func (*reactor) startLoops()            {}
func (*reactor) startLink(*link)        {}
func (*reactor) acceptInbound(net.Conn) {}
func (*reactor) shutdown()              {}
