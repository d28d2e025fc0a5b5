(** Contact-trace I/O: interaction sequences as plain text, one
    interaction per line. Lets experiments replay externally collected
    contact traces and archive generated ones.

    {b Grammar.} Lines end at ['\n']; a last line without one is still
    a line. A line is read as follows: remove spaces, tabs, CR, LF and
    form feeds at both ends ([String.trim]). An empty result or one
    starting with [#] is skipped. Otherwise split it on single spaces
    and drop the empty pieces: there must be exactly three, [time u v],
    each an OCaml integer literal ([int_of_string]: a sign, [0x] /
    [0o] / [0b] / [0u] prefixes and [_] separators are accepted), or
    the line is malformed. Only spaces separate fields: a tab, CR or
    form feed is allowed at a line's ends, not between its fields.
    Line numbers in messages count physical lines, comments and blank
    lines included. A line longer than 1 MiB (1,048,576 bytes, its
    newline not counted) fails with its line number when a file or
    channel is read ({!load}, {!stream}, {!stream_channel}); a line
    handed over as a string ({!parse_line}, {!stream_lines}) is already
    in memory and has no such bound.

    {b Reading.} Every reader scans a line made of spaces and three
    decimal fields of at most 18 digits eight bytes at a time, in
    place and with no allocation: a bit mask gives the length of a run
    of digits and three multiplies its value. Any other line is read by
    the grammar above on a copy. Files and channels are read through a
    64 KiB buffer, which a longer line grows up to its 1 MiB bound.
    {!load} reads a file in two passes over byte ranges cut just after
    a newline, each range on a domain of its own: a validating pass
    counts each range's interactions, lines and largest node, then a
    second pass writes every range's interactions into one array of
    exactly the counted length. Ranges are checked against each other
    in file order, so every value and every message is the one a
    sequential read gives. {!stream} validates on the calling domain
    only: it exists to replay in O(block) memory, and a second domain
    brings its own heap, about a quarter more peak RSS for a streamed
    run. *)

val save : string -> Sequence.t -> unit
(** [save path s] writes [s]; times are the sequence indices. *)

val load : ?jobs:int -> string -> Sequence.t
(** [load path] parses a trace file. Lines must be sorted by time;
    times must be exactly [0, 1, 2, ...] (the model has one
    interaction per time unit). The file is cut into at most [jobs]
    (default 1) ranges of at least 1 MiB each, and no more ranges than
    [Domain.recommended_domain_count ()], read on as many domains (a
    smaller file is one range and starts no domain); the result and
    every message are the same at any [jobs]. [path] must be a regular
    file: it is sized and read twice.
    @raise Failure with a line-numbered message on malformed input, on
    a file that is not regular (a pipe), or when the file changes
    between the two passes.
    @raise Invalid_argument on a pair {!Interaction.make} rejects. *)

val load_split : string -> int list -> Sequence.t
(** [load_split path offsets] is {!load} with the file cut at the
    given byte offsets instead, each moved to the start of the next
    line, every range on a domain of its own: the same sequence or the
    same first failure wherever the cuts fall. *)

val stream : string -> (int -> Interaction.t) * int * int
(** [stream path] is [(gen, length, max_node)]: a validating first
    pass over the trace in O(1) memory (length, largest node id,
    well-formedness — same errors as {!load}), plus a stateful
    generator reading one interaction per index {e in increasing
    order} on demand. Built for
    [Schedule.of_fun_chunked ~length gen]: replaying a huge trace
    costs one block of memory instead of the whole sequence. The
    generator holds no file descriptor between block reads: each read
    opens the file, seeks to where the last one stopped, reads one
    buffer and closes it, so a run that stops early leaves nothing
    open.
    @raise Failure on malformed input, out-of-order access, or
    reading past [length]. *)

val stream_lines :
  length:int -> (unit -> string option) -> (int -> Interaction.t)
(** One-pass variant of {!stream} for {e non-seekable} inputs (pipes,
    sockets), where no validating first pass is possible: the caller
    declares [length] (e.g. from an upload header) and supplies a line
    producer ([None] = end of input). Each string is one whole line.
    The returned generator follows the {!stream} contract — one
    interaction per index, strictly increasing — and validates each
    line as it arrives. Built for [Schedule.of_fun_chunked ~length]: a
    trace arriving on a socket runs in O(block) memory without ever
    touching a file.
    @raise Failure on malformed input, time gaps, out-of-order access,
    input ending before [length] lines, or reading past [length]. *)

val stream_channel : length:int -> in_channel -> (int -> Interaction.t)
(** {!stream_lines} over the lines of [ic] — the [Unix.pipe] /
    [in_channel_of_descr] case. [ic] is read a buffer at a time, so
    bytes after the line holding interaction [length - 1] may be
    consumed. *)

val parse_line : string -> (int * int * int) option
(** [parse_line l] reads [l] as one whole line: [Some (t, u, v)], or
    [None] for blank/comment lines. @raise Failure on malformed
    content. *)

val to_channel : out_channel -> Sequence.t -> unit
