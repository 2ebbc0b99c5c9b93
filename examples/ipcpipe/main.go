// Ipcpipe: a producer/consumer pair of MIX processes connected by a pipe
// over Chorus IPC (section 5.1.6). Message bodies leave the producer's
// address space by deferred copy into the kernel transit segment and enter
// the consumer's by cache.move — the receive retags the transit slot's
// page frames instead of copying them, which the bcopy counters prove.
//
// Run: go run ./examples/ipcpipe
package main

import (
	"bytes"
	"fmt"
	"log"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/mix"
	"chorusvm/internal/nucleus"
)

const (
	pageSize = 8192
	msgSize  = 32 << 10 // 4 pages
	messages = 16
)

func main() {
	clock := cost.New()
	site := nucleus.NewSite(clock, func(sa gmi.SegmentAllocator) gmi.MemoryManager {
		return core.New(core.Options{
			Frames: 2048, PageSize: pageSize, Clock: clock,
			SegAlloc: sa, SmallCopyPages: 8, // 64 KB messages use per-page stubs
		})
	})
	defer site.Close()
	sys := mix.NewSystem(site)

	bin, err := sys.InstallBinary("pipetool", bytes.Repeat([]byte{1}, pageSize), nil)
	if err != nil {
		log.Fatal(err)
	}
	pipe := sys.NewPipe()

	consumer, err := sys.Spawn(bin, func(p *mix.Process) int {
		buf, err := p.Sbrk(msgSize * 2)
		if err != nil {
			return 1
		}
		for i := 0; i < messages; i++ {
			n, err := pipe.ReadInto(p, buf, msgSize*2)
			if err != nil || n != msgSize {
				return 2
			}
			// Verify the first and last bytes of the body.
			b := make([]byte, 1)
			if err := p.Read(buf, b); err != nil || b[0] != byte(i) {
				return 3
			}
			if err := p.Read(buf+gmi.VA(msgSize-1), b); err != nil || b[0] != byte(i) {
				return 4
			}
		}
		return 0
	})
	if err != nil {
		log.Fatal(err)
	}

	snap := clock.Snapshot()
	producer, err := sys.Spawn(bin, func(p *mix.Process) int {
		buf, err := p.Sbrk(msgSize)
		if err != nil {
			return 1
		}
		body := make([]byte, msgSize)
		for i := 0; i < messages; i++ {
			for j := range body {
				body[j] = byte(i)
			}
			if err := p.Write(buf, body); err != nil {
				return 2
			}
			if err := pipe.WriteFrom(p, buf, msgSize); err != nil {
				return 3
			}
		}
		return 0
	})
	if err != nil {
		log.Fatal(err)
	}

	if st := producer.Wait(); st != 0 {
		log.Fatalf("producer exited %d", st)
	}
	if st := consumer.Wait(); st != 0 {
		log.Fatalf("consumer exited %d", st)
	}

	pagesMoved := messages * (msgSize / pageSize)
	fmt.Printf("%d messages × %d KB delivered\n", messages, msgSize>>10)
	fmt.Printf("pages logically transferred: %d\n", pagesMoved)
	fmt.Printf("pages physically bcopied:    %d (receive retags frames; the\n",
		clock.CountSince(snap, cost.EvBcopyPage))
	fmt.Printf("                                producer's rewrites force the copies)\n")
	fmt.Printf("IPC sends/receives:          %d/%d\n",
		clock.CountSince(snap, cost.EvIPCSend), clock.CountSince(snap, cost.EvIPCRecv))
	fmt.Printf("simulated time: %v\n", clock.Since(snap))
}
