(** Disassembler and listing generator. *)

type entry = {
  offset : int;           (** segment-relative offset of the instruction *)
  bytes : string;         (** raw encoded bytes *)
  instruction : Ssx.Instruction.t;
}

val disassemble : string -> entry list
(** Linear sweep over a byte string from its start, which is offset 0. *)

val pp_entry : Format.formatter -> entry -> unit
(** One listing line: offset, hex bytes, mnemonic. *)

val listing : ?symbols:(string * int) list -> string -> string
(** Full listing of a byte string.  With [symbols], offsets that carry a
    label are annotated with [label:] lines and branch targets get a
    [; -> label] comment. *)
