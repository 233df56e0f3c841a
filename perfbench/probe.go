package main

import (
	"io"
	"net"
	"runtime"
	"time"
)

// wakeProbe is the median of 2000 round trips of a 64-byte message
// between two goroutines locked to their own OS threads over loopback
// TCP, in µs, taken while the benchmark is otherwise idle and with none
// of the program's code; 0 if loopback is unavailable. It rises when
// waking a thread on the other CPU costs more, which every request, row
// and ack of the workloads pays, and which on a virtual machine depends
// on the host's load.
func wakeProbe() float64 {
	runtime.GC() // no collection of the benchmark's own garbage runs beside the probe
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	defer ln.Close()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c)
	}()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0
	}
	msg := make([]byte, 64)
	rtt := make([]float64, 0, 2000)
	for i := 0; i < cap(rtt); i++ {
		start := time.Now()
		if _, err := c.Write(msg); err != nil {
			break
		}
		if _, err := io.ReadFull(c, msg); err != nil {
			break
		}
		rtt = append(rtt, us(time.Since(start)))
	}
	c.Close()
	<-echoed
	return median(rtt)
}
