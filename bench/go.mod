module cep2asp/bench

go 1.22

require cep2asp v0.0.0

replace cep2asp => ../
