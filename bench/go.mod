module taxilight/bench

go 1.22

require taxilight v0.0.0

replace taxilight => ../
