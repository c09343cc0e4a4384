module webdbsec/bench

go 1.22

require webdbsec v0.0.0

replace webdbsec => ../
