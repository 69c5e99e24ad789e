package runtime

import (
	"sync"

	"camcast/internal/transport"
)

var wireOnce sync.Once

// statusLookupFailed is the wire status code (v4 response frames) that
// classifies ErrLookupFailed across the TCP transport, so isLookupFailed
// can errors.Is-match remote exhaustion instead of parsing message text.
const statusLookupFailed = 1

// RegisterWireTypes registers every runtime RPC payload type with the
// transport layer so that nodes can run over the TCP transport
// (internal/transport.TCP): the binary wire decoders (see wirecodec.go) and
// the ErrLookupFailed status code. Safe to call multiple times; the
// in-memory transport does not need it.
func RegisterWireTypes() {
	wireOnce.Do(func() {
		registerBinaryWireTypes()
		transport.RegisterStatusError(statusLookupFailed, ErrLookupFailed)
	})
}
