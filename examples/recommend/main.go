// Recommendation over TCP: the paper's e-commerce motivating workload, run
// as two genuinely separate protocol endpoints connected by TCP with gob
// framing — the deployment shape of a real cross-enterprise collaboration
// (each goroutine here would be its own process on its own machine).
//
// An e-commerce company (Party B) holds click labels and its own behaviour
// features; a media platform (Party A) contributes categorical interest
// fields. They train a DLRM-style model without either side revealing
// features, embeddings or labels.
//
//	go run ./examples/recommend
package main

import (
	"fmt"
	"log"
	"net"

	"blindfl/internal/data"
	"blindfl/internal/model"
	"blindfl/internal/protocol"
	"blindfl/internal/transport"
)

func main() {
	spec := data.Spec{Name: "recommend", Feats: 120, AvgNNZ: 8, Classes: 2,
		Train: 400, Test: 150, CatFields: 6, CatVocab: 24, Margin: 4}
	ds := data.Generate(spec, 13)

	// Wire the two parties through a real TCP connection.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := l.Addr().String()
	fmt.Printf("party B listening on %s\n", addr)

	connBCh := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			log.Fatal(err)
		}
		connBCh <- transport.NewGobConn(c)
	}()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	connA := transport.NewGobConn(c)
	connB := <-connBCh
	l.Close()

	skA, skB := protocol.TestKeys()
	pa := protocol.NewPeer(protocol.PartyA, connA, skA, 13, 0, 0)
	pb := protocol.NewPeer(protocol.PartyB, connB, skB, 13, 0, 0)
	if err := protocol.HandshakeAll(pa, pb); err != nil {
		log.Fatal(err)
	}

	h := model.DefaultHyper()
	h.Epochs = 2
	h.Batch = 64
	h.EmbDim = 4
	h.Hidden = []int{8}

	fmt.Println("training federated DLRM over TCP...")
	fed, err := model.Trainer{Kind: model.DLRM, Hyper: h}.Train(ds, model.Pair(pa, pb))
	if err != nil {
		log.Fatal(err)
	}

	msgs, bytes := connA.Stats()
	fmt.Printf("click model AUC: %.4f\n", fed.TestMetric)
	fmt.Printf("party A sent %d protocol messages (%.1f MiB) over TCP\n",
		msgs, float64(bytes)/(1<<20))
}
