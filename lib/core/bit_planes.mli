(** Bit planes: per-node bit sets packed into native-int words, the one
    layout behind every word-parallel kernel.

    Bit [b] of a set lives in word [b / word_bits] at position
    [b mod word_bits]. Two users share the layout:

    - {e token planes} ({!t}): node [v] knows token [j] — {!Gossip.run}
      exchanges them, {!Validate} and [Analysis.coverage_times] replay
      a gossip transfer log over them, and {!Flooding_aggregation} is
      n-token gossip that stops when the sink is full. The three
      readers of a gossip log agree because they seed and merge
      through this one module;
    - {e lane masks}: {!Batch_engine} packs one coin replication per
      bit, sized by {!words} and {!word_mask}. *)

val word_bits : int
(** Bits per word: 63, the width of OCaml's native [int] ([Int64]
    planes would box without flambda). *)

val words : int -> int
(** [words bits] is the number of words a set of [bits] bits takes. *)

val word_mask : bits:int -> int -> int
(** [word_mask ~bits word] is the value of word [word] of a full set of
    [bits] bits: all ones ([-1]) for a complete word, the low
    [bits - word * word_bits] bits for the last, partial one. *)

(** {1 Token planes} *)

type t
(** One k-bit set per node, mutable. *)

val tokens : Problem.t -> n:int -> t
(** The initial knowledge of a [Dissemination] problem over [n] nodes:
    token [j] at {!Problem.token_home}, nothing else.
    @raise Invalid_argument on an [Aggregation] problem. *)

val is_full : t -> int -> bool
(** Whether node [v] knows every token. *)

val count : t -> int -> int
(** Number of tokens node [v] knows. *)

val absorb : t -> dst:int -> src:int -> bool
(** One direction of an exchange: [dst] learns what [src] knows.
    [true] iff [dst] learnt at least one token — the replay step of a
    gossip transfer log. *)

val exchange : t -> int -> int -> int
(** [exchange p u v]: both endpoints learn what the other knows, in one
    pass over the words. Bit 0 of the result is set iff [u] gained a
    token, bit 1 iff [v] did. *)
