(** Aligned plain-text tables for experiment reports. *)

type t

val create : header:string list -> t
(** @raise Invalid_argument on an empty header. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val header_row : t -> string list

val rows : t -> string list list
(** Data rows, in insertion order. *)

val render : t -> string
(** Right-pads cells; columns separated by two spaces; a rule under the
    header. *)

val print : t -> unit
(** [render] to stdout. *)

val cell_f : float -> string
(** Compact numeric formatting: integers render without decimals,
    others with up to two. *)

val cell_ratio : float -> string
(** Three-decimal format for ratios. *)
