package netstack

import (
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
)

// BenchmarkTCPTransfer measures the full simulation cost of moving 1 MB
// through the stack over the shared segment (segmentation, ACK clocking,
// CSMA/CD events).
func BenchmarkTCPTransfer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.New(1)
		seg := ethernet.NewSegment(k, 0)
		h0 := NewHost(k, seg.Attach("a"), "a", DefaultConfig())
		h1 := NewHost(k, seg.Attach("b"), "b", DefaultConfig())
		l := h1.Listen(80)
		k.Go("server", func(p *sim.Proc) { l.Accept(p).Read(p, 1<<20) })
		k.Go("client", func(p *sim.Proc) {
			c := h0.Connect(p, 1, 80)
			c.Write(p, make([]byte, 1<<20))
		})
		k.Run()
		k.Close()
	}
	b.SetBytes(1 << 20)
}

// BenchmarkUDPDatagrams measures the fire-and-forget path.
func BenchmarkUDPDatagrams(b *testing.B) {
	k := sim.New(1)
	b.Cleanup(k.Close)
	seg := ethernet.NewSegment(k, 0)
	h0 := NewHost(k, seg.Attach("a"), "a", DefaultConfig())
	h1 := NewHost(k, seg.Attach("b"), "b", DefaultConfig())
	h1.BindUDP(9, func(int, uint16, []byte) {})
	payload := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		h0.SendUDP(1, 9, 9, payload)
	}
	b.ResetTimer()
	k.Run()
}
