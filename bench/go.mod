module microslip/bench

go 1.22

require microslip v0.0.0

replace microslip => ../
