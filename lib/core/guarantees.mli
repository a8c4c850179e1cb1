(** The paper's guarantees as checks over a run's public outcome: the
    one copy that the chaos runner, the tests and [ddemos serve] judge
    runs by. Each check takes plain run data, so any backend can feed
    it, and returns its violations (empty = the guarantee holds), each
    tagged with the guarantee it breaks. The properties are Theorems
    1–3 of the paper as its journal version (arXiv:1608.00849) states
    them. *)

type guarantee =
  | Liveness            (** Theorem 1: every voter gets a receipt *)
  | Receipt_contract    (** Theorem 2: a receipt proves the vote is counted *)
  | Ucert_uniqueness    (** no serial is certified for two codes *)
  | Vote_set_agreement  (** honest collectors submit one and the same set *)
  | Tally               (** the tally counts the cast intents *)
  | Board_audit         (** BB majority reads and the end-to-end audit *)

type violation = { guarantee : guarantee; detail : string }

(** ["liveness"], ["receipt-contract"], ["ucert-uniqueness"],
    ["vote-set-agreement"], ["tally"], ["board-audit"]. *)
(* lint: allow unused-export — test_serve and test_chaos compare broken guarantees by name *)
val name : guarantee -> string

(** [name: detail]. *)
val to_string : violation -> string

(** Intents are (serial, choice) pairs, one per cast. A serial cast
    twice may get one receipt or two, so liveness asks for between one
    receipt per distinct serial and one per intent; no voter may run
    out of retries, and the run may not time out (the simulator's
    virtual-time cap, a stalled serve driver). *)
val liveness :
  intents:(int * int) list -> receipts_ok:int -> exhausted:int -> timed_out:bool ->
  violation list

(** No voter saw a wrong receipt, and every receipted (serial, code) is
    in the [agreed] set. [None] (nothing agreed) with a receipt issued
    is a violation. *)
val receipt_contract :
  receipts_bad:int -> successes:(int * string) list ->
  agreed:(int * string) list option -> violation list

(** Conflicting valid UCERTs observed by honest collectors, as
    (serial, certified code, conflicting code): any is a violation. *)
val ucert_uniqueness : (int * string * string) list -> violation list

(** The honest collectors' submitted sets, as (collector, set): at
    least [required] of them, all equal as sets, and no serial twice. *)
val vote_set_agreement :
  required:int -> (int * (int * string) list) list -> violation list

(** A tally must exist and count one choice per cast serial. A serial
    cast with several choices may count any one of them; the checker
    derives these alternatives from the intents. *)
(* lint: allow unused-export — test_chaos "tally alternatives from intents" *)
val tally : options:int -> intents:(int * int) list -> Types.tally option -> violation list

(** ["[c0 c1 ...]"], as tally violations print it. *)
val tally_str : Types.tally -> string

(** Every guarantee over a simulator run, and with full crypto
    ({!Election.Source}) the board audit: the boards' majority final set
    equals the agreed set and every audit check passes. The agreed set
    is the first honest collector's. Every honest collector must submit a vote set unless
    [quorum_sets] (default [false]), where [Nv - fv] suffice: the
    simulator has no retransmission layer, so persistent loss can
    stall one node for ever, and the paper's reliable channels weaken
    to fair progress of a quorum. *)
val check : ?quorum_sets:bool -> Election.params -> Election.result -> violation list
