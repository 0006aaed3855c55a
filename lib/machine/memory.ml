type region = { base : int; size : int }

type t = {
  data : Bytes.t;
  prot : Bytes.t;  (* protection bitmap: bit (addr land 7) of byte (addr lsr 3) *)
  mutable rom : region list;
  gens : int array;  (* per page: the [stamp] of its last change *)
  mutable stamp : int;  (* bumped by every change to any byte *)
  mutable writes : int;
  mutable rom_refusals : int;
}

let size = Addr.memory_size
let page_shift = 8
let page_size = 1 lsl page_shift
let page_count = size lsr page_shift

let create () =
  { data = Bytes.make size '\000';
    prot = Bytes.make (size lsr 3) '\000';
    rom = [];
    gens = Array.make page_count 0;
    stamp = 0;
    writes = 0;
    rom_refusals = 0 }

let[@inline] is_protected mem addr =
  Char.code (Bytes.unsafe_get mem.prot (addr lsr 3)) land (1 lsl (addr land 7)) <> 0

let protected_regions mem = mem.rom

let unsafe_generations mem = mem.gens

(* A change takes a fresh stamp, so no generation is ever reused: a
   page whose generation is unchanged holds the same bytes. *)
let[@inline] touch mem page =
  let s = mem.stamp + 1 in
  mem.stamp <- s;
  Array.unsafe_set mem.gens page s

let[@inline] read_byte mem addr = Char.code (Bytes.unsafe_get mem.data (Addr.mask addr))

let write_byte mem addr v =
  let addr = Addr.mask addr in
  if is_protected mem addr then mem.rom_refusals <- mem.rom_refusals + 1
  else begin
    Bytes.unsafe_set mem.data addr (Char.unsafe_chr (v land 0xff));
    mem.writes <- mem.writes + 1;
    touch mem (addr lsr page_shift)
  end

let force_write_byte mem addr v =
  let addr = Addr.mask addr in
  Bytes.unsafe_set mem.data addr (Char.unsafe_chr (v land 0xff));
  mem.writes <- mem.writes + 1;
  touch mem (addr lsr page_shift)

let unsafe_contents mem = mem.data

let write_count mem = mem.writes
let rom_refusal_count mem = mem.rom_refusals

(* Native-order 16-bit loads and stores, unchecked: callers keep
   [addr + 1] inside the array. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external swap16 : int -> int = "%bswap16"

(* The last address, which is also the address mask ([size] is a power
   of two): masking inline keeps a call off every stack push. *)
let last = size - 1

let read_word mem addr =
  let addr = addr land last in
  if addr = last then
    Word.of_bytes ~low:(read_byte mem addr) ~high:(read_byte mem 0)
  else if Sys.big_endian then swap16 (get16 mem.data addr)
  else get16 mem.data addr

(* One store when the word neither wraps nor touches ROM: the bytes,
   the write count and the moved pages are those of the two
   {!write_byte}s it stands for, and one stamp serves both pages
   (generations need only be fresh).  Otherwise it is those two. *)
let write_word mem addr w =
  let addr = addr land last in
  if addr = last || is_protected mem addr || is_protected mem (addr + 1) then begin
    write_byte mem addr (Word.low_byte w);
    write_byte mem (addr + 1) (Word.high_byte w)
  end
  else begin
    set16 mem.data addr (if Sys.big_endian then swap16 (w land 0xffff) else w);
    mem.writes <- mem.writes + 2;
    let s = mem.stamp + 1 in
    mem.stamp <- s;
    Array.unsafe_set mem.gens (addr lsr page_shift) s;
    Array.unsafe_set mem.gens ((addr + 1) lsr page_shift) s
  end

(* [f dst src n] over the stretches of [len] bytes from [base] that do
   not wrap the address space: one call unless the range wraps (or is
   longer than memory, when later stretches overwrite earlier ones). *)
let iter_spans ~base ~len f =
  let rec go src dst =
    let n = min (len - src) (size - dst) in
    f dst src n;
    if src + n < len then go (src + n) 0
  in
  if len > 0 then go 0 (Addr.mask base)

let or_prot mem cell mask =
  Bytes.unsafe_set mem.prot cell
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get mem.prot cell) lor mask))

let protect mem region =
  mem.rom <- region :: mem.rom;
  (* Whole bitmap bytes by fill; a mask at each ragged end. *)
  iter_spans ~base:region.base ~len:(min region.size size) (fun lo _ n ->
      let hi = lo + n in
      let first = lo lsr 3 and last = (hi - 1) lsr 3 in
      let head = (0xff lsl (lo land 7)) land 0xff in
      let tail = 0xff lsr (7 - ((hi - 1) land 7)) in
      if first = last then or_prot mem first (head land tail)
      else begin
        or_prot mem first head;
        Bytes.fill mem.prot (first + 1) (last - first - 1) '\xff';
        or_prot mem last tail
      end)

let load_image mem ~base image =
  let len = String.length image in
  if len > 0 then begin
    let s = mem.stamp + 1 in
    mem.stamp <- s;
    iter_spans ~base ~len (fun dst src n ->
        Bytes.blit_string image src mem.data dst n;
        let page = dst lsr page_shift in
        Array.fill mem.gens page (((dst + n - 1) lsr page_shift) - page + 1) s);
    mem.writes <- mem.writes + len
  end

let dump mem ~base ~len =
  (* In-bounds extractions (every caller in practice; campaign digests
     and the fuzzer's full-image compare do this per trial) are one
     blit; only a range that wraps the address space pays the per-byte
     masked path. *)
  if base >= 0 && len >= 0 && base + len <= size then
    Bytes.sub_string mem.data base len
  else String.init len (fun i -> Char.chr (read_byte mem (base + i)))

let blit mem ~src ~dst ~len =
  for i = 0 to len - 1 do
    write_byte mem (dst + i) (read_byte mem (src + i))
  done

let page_has_rom mem page =
  let cells = page_size lsr 3 in
  let first = page * cells in
  let rec scan i =
    i < cells
    && (Bytes.unsafe_get mem.prot (first + i) <> '\000' || scan (i + 1))
  in
  scan 0

let restore_pages mem ~image ~synced =
  if String.length image <> size then
    invalid_arg "Memory.restore_pages: image must cover the whole memory";
  if Array.length synced <> page_count then
    invalid_arg "Memory.restore_pages: synced must hold one entry per page";
  let s = mem.stamp + 1 in
  let copied = ref 0 in
  for page = 0 to page_count - 1 do
    if Array.unsafe_get mem.gens page <> Array.unsafe_get synced page then begin
      let base = page lsl page_shift in
      if page_has_rom mem page then
        for addr = base to base + page_size - 1 do
          if not (is_protected mem addr) then
            Bytes.unsafe_set mem.data addr (String.unsafe_get image addr)
        done
      else Bytes.blit_string image base mem.data base page_size;
      Array.unsafe_set mem.gens page s;
      Array.unsafe_set synced page s;
      incr copied
    end
  done;
  if !copied > 0 then mem.stamp <- s;
  !copied
