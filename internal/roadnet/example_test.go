package roadnet_test

import (
	"fmt"
	"strings"

	"taxilight/internal/roadnet"
)

func ExampleGenerateGrid() {
	cfg := roadnet.DefaultGridConfig()
	cfg.Rows, cfg.Cols = 3, 3
	net, err := roadnet.GenerateGrid(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d intersections, %d directed segments, %d traffic lights\n",
		net.NumNodes(), net.NumSegments(), len(net.SignalisedNodes()))
	// Output:
	// 9 intersections, 24 directed segments, 9 traffic lights
}

func ExampleImportOSM() {
	extract := `<?xml version="1.0"?>
<osm>
  <node id="1" lat="22.5400" lon="114.0500"/>
  <node id="2" lat="22.5400" lon="114.0600"><tag k="highway" v="traffic_signals"/></node>
  <node id="3" lat="22.5400" lon="114.0700"/>
  <way id="10">
    <nd ref="1"/><nd ref="2"/><nd ref="3"/>
    <tag k="highway" v="primary"/><tag k="maxspeed" v="50"/>
  </way>
</osm>`
	net, err := roadnet.ImportOSM(strings.NewReader(extract), roadnet.DefaultOSMConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d nodes, %d segments, %d signals\n",
		net.NumNodes(), net.NumSegments(), len(net.SignalisedNodes()))
	// Output:
	// 3 nodes, 4 segments, 1 signals
}
