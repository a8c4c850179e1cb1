(** Challenge extraction from voter coins (the A/B part choices), as in
    DEMOS/D-DEMOS: the election's sigma-protocol challenges are hashes
    of the collected coins, so soundness rests on the voters' entropy
    rather than on a random oracle alone. *)

module Sc = Dd_bignum.Sc

(** Master election challenge from the ordered coin list. *)
val master : election_id:string -> coins:bool list -> Sc.t

(** Per-ballot-part challenge derived from the master. *)
val for_proof : master_challenge:Sc.t -> serial:int -> part:[ `A | `B ] -> Sc.t
