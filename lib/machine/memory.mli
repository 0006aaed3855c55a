(** Physical memory: a 1 MiB linear byte array with write-protected
    (ROM) regions.

    The paper's fault model assumes ROM content "is guaranteed to remain
    unchanged" (§2); writes from the CPU to a protected region are
    silently ignored (as on real hardware, where the write strobe simply
    has no effect), and the fault injector refuses to target ROM. *)

type t

type region = { base : int; size : int }
(** A physical address range [\[base, base + size)]. *)

val create : unit -> t
(** Fresh memory, all zero, no protected regions. *)

val read_byte : t -> int -> int
(** [read_byte mem addr] at physical [addr] (wrapped to 20 bits). *)

val write_byte : t -> int -> int -> unit
(** [write_byte mem addr v]; ignored when [addr] lies in ROM. *)

val read_word : t -> int -> Word.t
(** Little-endian 16-bit read at physical [addr] (wrapped to 20 bits):
    one 16-bit load, or the two {!read_byte}s when the word wraps the
    end of memory. *)

val write_word : t -> int -> Word.t -> unit
(** Little-endian 16-bit write at physical [addr] (wrapped to 20 bits),
    ROM-checked per byte: one 16-bit store when neither byte is
    protected and the word does not wrap the end of memory, otherwise
    the two {!write_byte}s it stands for.  Either way the bytes,
    {!write_count}, {!rom_refusal_count} and the set of pages whose
    generation moves are those of the two byte writes; the one store
    gives both its pages one fresh stamp. *)

val force_write_byte : t -> int -> int -> unit
(** Write bypassing ROM protection — used only to initialise ROM images
    at machine-build time, never by running code. *)

val protect : t -> region -> unit
(** Mark a region as ROM from now on (whole bitmap bytes at a time). *)

val is_protected : t -> int -> bool
(** Whether a physical address lies in a ROM region.  O(1): backed by a
    precomputed protection bitmap, not a scan of the region list. *)

val protected_regions : t -> region list

val write_count : t -> int
(** Total byte writes accepted through {!write_byte},
    {!force_write_byte} and the paths built on them ({!write_word},
    {!load_image}, {!blit}).  Plain int accounting kept unconditionally
    — a single increment on the store path — and read out by
    {!Machine.counts}. *)

val rom_refusal_count : t -> int
(** Writes {!write_byte} silently dropped because the target byte lies
    in a protected (ROM) region — the §2 "ROM remains unchanged"
    guarantee made visible. *)

(** {1 Page generations}

    Memory is tracked in {!page_size}-byte pages.  Every change to a
    byte — {!write_byte}, {!force_write_byte} and the paths built on
    them, {!load_image}, {!restore_pages} — takes a fresh value of a
    memory-wide change stamp and records it as the page's generation.
    The stamp only grows, so a generation is never reused: a page whose
    generation is unchanged holds the bytes it held then.  The block
    compiler keys the freshness of compiled code on them (the §5.2
    mis-decode hazard), and {!restore_pages} copies only the pages they
    show moved. *)

val page_size : int
(** 256 bytes. *)

val page_count : int
(** [size / page_size]. *)

val unsafe_generations : t -> int array
(** Every page's generation, indexed by page: the live array,
    zero-copy.  Read-only by contract; the block compiler reads it on
    every freshness check, and a snapshot keeps a copy. *)

val restore_pages : t -> image:string -> synced:int array -> int
(** [restore_pages mem ~image ~synced] makes memory equal [image] (a
    {!dump} of the whole address space) outside ROM, leaving the bytes
    a {!write_byte} of every address would.  [synced.(page)] records
    the generation at which the page last matched [image]; only pages
    whose generation has moved since are copied, and on a page holding
    ROM only its unprotected bytes.  Each copied page takes one fresh
    generation, recorded in [synced] too, so a second restore in a row
    copies nothing.  A record that matches no generation (e.g. all
    [-1]) copies every page.  Returns the number of pages copied.  This
    is the snapshot-restore path of the trial engine and the fuzzer's
    trial reset. *)

val load_image : t -> base:int -> string -> unit
(** Copy a raw byte string into memory at [base] (bypasses protection,
    for building boot images).  One blit, split only where the range
    wraps the address space; each touched page's generation moves once,
    and the string's length counts as that many writes. *)

val unsafe_contents : t -> Bytes.t
(** The live backing store, zero-copy.  Read-only by contract: writing
    through it bypasses write protection, write accounting and the page
    generations (so the block compiler and {!restore_pages} would go
    stale).
    Exists for whole-image comparisons that would otherwise {!dump} a
    fresh copy per call — the differential fuzzer's per-trial memory
    check. *)

val dump : t -> base:int -> len:int -> string
(** Extract [len] raw bytes starting at [base]. *)

val blit : t -> src:int -> dst:int -> len:int -> unit
(** Memory-to-memory copy honouring ROM protection on the destination. *)

val size : int
(** Total memory size (1 MiB). *)
