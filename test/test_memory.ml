let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

let test_read_write () =
  let mem = Ssx.Memory.create () in
  Ssx.Memory.write_byte mem 0x1234 0xAB;
  check_int "byte" 0xAB (Ssx.Memory.read_byte mem 0x1234);
  check_int "fresh memory is zero" 0 (Ssx.Memory.read_byte mem 0x4321)

let test_word_endianness () =
  let mem = Ssx.Memory.create () in
  Ssx.Memory.write_word mem 0x100 0x1234;
  check_int "little-endian low" 0x34 (Ssx.Memory.read_byte mem 0x100);
  check_int "little-endian high" 0x12 (Ssx.Memory.read_byte mem 0x101);
  check_int "word read" 0x1234 (Ssx.Memory.read_word mem 0x100)

let test_address_wrap () =
  let mem = Ssx.Memory.create () in
  Ssx.Memory.write_byte mem Ssx.Addr.memory_size 0x77;
  check_int "wraps at 1 MiB" 0x77 (Ssx.Memory.read_byte mem 0);
  Ssx.Memory.write_word mem (Ssx.Addr.memory_size - 1) 0xBEEF;
  check_int "word wraps" 0xEF (Ssx.Memory.read_byte mem (Ssx.Addr.memory_size - 1));
  check_int "word wraps high byte" 0xBE (Ssx.Memory.read_byte mem 0)

let test_rom_protection () =
  let mem = Ssx.Memory.create () in
  Ssx.Memory.write_byte mem 0x5000 0x11;
  Ssx.Memory.protect mem { Ssx.Memory.base = 0x5000; size = 0x100 };
  Ssx.Memory.write_byte mem 0x5000 0x99;
  check_int "write to ROM ignored" 0x11 (Ssx.Memory.read_byte mem 0x5000);
  Ssx.Memory.write_byte mem 0x50FF 0x99;
  check_int "last ROM byte protected" 0 (Ssx.Memory.read_byte mem 0x50FF);
  Ssx.Memory.write_byte mem 0x5100 0x99;
  check_int "byte after ROM writable" 0x99 (Ssx.Memory.read_byte mem 0x5100);
  check_bool "is_protected inside" true (Ssx.Memory.is_protected mem 0x5080);
  check_bool "is_protected outside" false (Ssx.Memory.is_protected mem 0x5100)

let test_force_write () =
  let mem = Ssx.Memory.create () in
  Ssx.Memory.protect mem { Ssx.Memory.base = 0; size = 0x10 };
  Ssx.Memory.force_write_byte mem 0 0x42;
  check_int "force write bypasses ROM" 0x42 (Ssx.Memory.read_byte mem 0)

let test_load_dump () =
  let mem = Ssx.Memory.create () in
  Ssx.Memory.load_image mem ~base:0x2000 "hello";
  Helpers.check_string "roundtrip" "hello" (Ssx.Memory.dump mem ~base:0x2000 ~len:5);
  check_int "bytes placed" (Char.code 'h') (Ssx.Memory.read_byte mem 0x2000)

let test_load_into_rom () =
  let mem = Ssx.Memory.create () in
  Ssx.Memory.protect mem { Ssx.Memory.base = 0x3000; size = 0x10 };
  Ssx.Memory.load_image mem ~base:0x3000 "xyz";
  Helpers.check_string "load_image bypasses protection (boot-time install)" "xyz"
    (Ssx.Memory.dump mem ~base:0x3000 ~len:3)

let test_blit () =
  let mem = Ssx.Memory.create () in
  Ssx.Memory.load_image mem ~base:0x1000 "abcdef";
  Ssx.Memory.blit mem ~src:0x1000 ~dst:0x2000 ~len:6;
  Helpers.check_string "copied" "abcdef" (Ssx.Memory.dump mem ~base:0x2000 ~len:6);
  (* blit honours ROM protection on the destination *)
  Ssx.Memory.protect mem { Ssx.Memory.base = 0x4000; size = 3 };
  Ssx.Memory.blit mem ~src:0x1000 ~dst:0x4000 ~len:6;
  Helpers.check_string "first three protected" "\000\000\000def"
    (Ssx.Memory.dump mem ~base:0x4000 ~len:6)

let test_regions () =
  let mem = Ssx.Memory.create () in
  check_int "no regions initially" 0 (List.length (Ssx.Memory.protected_regions mem));
  Ssx.Memory.protect mem { Ssx.Memory.base = 0; size = 1 };
  Ssx.Memory.protect mem { Ssx.Memory.base = 2; size = 1 };
  check_int "two regions" 2 (List.length (Ssx.Memory.protected_regions mem))

let prop_byte_roundtrip =
  QCheck.Test.make ~name:"byte write/read roundtrip"
    (QCheck.pair (QCheck.int_bound 0xFFFFF) (QCheck.int_bound 0xFF))
    (fun (addr, v) ->
      let mem = Ssx.Memory.create () in
      Ssx.Memory.write_byte mem addr v;
      Ssx.Memory.read_byte mem addr = v)

let prop_word_roundtrip =
  QCheck.Test.make ~name:"word write/read roundtrip"
    (QCheck.pair (QCheck.int_bound 0xFFFFF) (QCheck.int_bound 0xFFFF))
    (fun (addr, v) ->
      let mem = Ssx.Memory.create () in
      Ssx.Memory.write_word mem addr v;
      Ssx.Memory.read_word mem addr = v)

let generations mem = Array.copy (Ssx.Memory.unsafe_generations mem)

(* load_image is one blit per stretch that does not wrap: it counts a
   write per byte and moves each touched page's generation once. *)
let test_load_image_pages () =
  let mem = Ssx.Memory.create () in
  let page = Ssx.Memory.page_size in
  let image = String.init (page + 2) (fun i -> Char.chr (i land 0xff)) in
  let before = generations mem in
  let base = Ssx.Memory.size - page - 1 in
  Ssx.Memory.load_image mem ~base image;
  check_int "a write per byte" (page + 2) (Ssx.Memory.write_count mem);
  Helpers.check_string "wrapped load" image
    (Ssx.Memory.dump mem ~base ~len:(page + 2));
  let after = generations mem in
  let moved =
    List.filter (fun p -> after.(p) <> before.(p))
      (List.init Ssx.Memory.page_count Fun.id)
  in
  let last = Ssx.Memory.page_count - 1 in
  Alcotest.(check (list int))
    "the touched pages moved" [ 0; last - 1; last ] moved;
  let newest = Array.fold_left max 0 before in
  check_bool "one fresh generation" true
    (List.for_all (fun p -> after.(p) = newest + 1) moved)

(* --- page restore ------------------------------------------------------ *)

type op =
  | Write_byte of int * int
  | Write_word of int * int
  | Force_write of int * int
  | Blit of int * int * int
  | Load of int * string

(* Two ROM regions with ragged ends: one spanning parts of three pages,
   one wrapping the end of the address space. *)
let rom_regions =
  [ { Ssx.Memory.base = 0x3080; size = 0x203 };
    { Ssx.Memory.base = 0xFFFC1; size = 0x80 } ]

let in_rom addr =
  List.exists
    (fun { Ssx.Memory.base; size } ->
      Ssx.Addr.mask (addr - base) < size)
    rom_regions

let pp_op = function
  | Write_byte (a, v) -> Printf.sprintf "write_byte %05X %02X" a v
  | Write_word (a, v) -> Printf.sprintf "write_word %05X %04X" a v
  | Force_write (a, v) -> Printf.sprintf "force_write_byte %05X %02X" a v
  | Blit (s, d, n) -> Printf.sprintf "blit %05X -> %05X (%d)" s d n
  | Load (b, img) -> Printf.sprintf "load_image %05X (%d)" b (String.length img)

(* Addresses cluster around the ROM regions and the wrap point, so ops
   straddle pages, ROM edges and the end of memory. *)
let gen_ops =
  let open QCheck.Gen in
  let addr =
    oneof
      [ int_range 0x2F00 0x3400; int_range 0xFFE00 0xFFFFF; int_range 0 0x1FF ]
  in
  let op =
    frequency
      [ (4, map2 (fun a v -> Write_byte (a, v)) addr (int_bound 0xFF));
        (3, map2 (fun a v -> Write_word (a, v)) addr (int_bound 0xFFFF));
        (2, map2 (fun a v -> Force_write (a, v)) addr (int_bound 0xFF));
        (1, map3 (fun s d n -> Blit (s, d, n)) addr addr (int_bound 300));
        (1, map2 (fun b img -> Load (b, img)) addr
             (string_size ~gen:char (int_bound 600))) ]
  in
  pair (list_size (int_bound 10) op) (list_size (int_range 1 40) op)

let apply mem = function
  | Write_byte (a, v) -> Ssx.Memory.write_byte mem a v
  | Write_word (a, v) -> Ssx.Memory.write_word mem a v
  | Force_write (a, v) -> Ssx.Memory.force_write_byte mem a v
  | Blit (src, dst, len) -> Ssx.Memory.blit mem ~src ~dst ~len
  | Load (base, image) -> Ssx.Memory.load_image mem ~base image

(* The ops on a byte model of memory: [write_byte], [write_word] and
   [blit] skip ROM bytes; [force_write_byte] and [load_image] write
   through. *)
let model_ops model ops =
  let set ~force a v =
    let a = Ssx.Addr.mask a in
    if force || not (in_rom a) then Bytes.set model a (Char.chr (v land 0xff))
  in
  List.iter
    (function
      | Write_byte (a, v) -> set ~force:false a v
      | Write_word (a, v) ->
        set ~force:false a v;
        set ~force:false (a + 1) (v lsr 8)
      | Force_write (a, v) -> set ~force:true a v
      | Blit (src, dst, len) ->
        for i = 0 to len - 1 do
          set ~force:false (dst + i)
            (Char.code (Bytes.get model (Ssx.Addr.mask (src + i))))
        done
      | Load (base, image) ->
        String.iteri (fun i c -> set ~force:true (base + i) (Char.code c)) image)
    ops

(* Capture (a dump and the generations), run random writes from every
   source, restore.  The dirty memory must equal the byte model of the
   ops applied to the capture, and the restored memory the capture
   outside ROM with the model's ROM bytes (only [force_write_byte] and
   [load_image] reach ROM); exactly the moved pages are copied, each
   with a generation no page ever held, and a second restore copies
   nothing. *)
let prop_page_restore =
  QCheck.Test.make ~count:200 ~name:"page restore undoes every write source"
    (QCheck.make
       ~print:(fun (setup, ops) ->
         String.concat "\n"
           (List.map pp_op setup @ ("--- capture" :: List.map pp_op ops)))
       gen_ops)
    (fun (setup, ops) ->
      let mem = Ssx.Memory.create () in
      List.iter (Ssx.Memory.protect mem) rom_regions;
      List.iter (apply mem) setup;
      let image = Ssx.Memory.dump mem ~base:0 ~len:Ssx.Memory.size in
      let synced = generations mem in
      List.iter (apply mem) ops;
      let dirty = Ssx.Memory.dump mem ~base:0 ~len:Ssx.Memory.size in
      let held = generations mem in
      let newest = Array.fold_left max 0 held in
      let moved =
        List.filter (fun p -> held.(p) <> synced.(p))
          (List.init Ssx.Memory.page_count Fun.id)
      in
      let copied = Ssx.Memory.restore_pages mem ~image ~synced in
      let model = Bytes.of_string image in
      model_ops model ops;
      let expected = Bytes.of_string image in
      List.iter
        (fun { Ssx.Memory.base; size } ->
          for i = 0 to size - 1 do
            let a = Ssx.Addr.mask (base + i) in
            Bytes.set expected a (Bytes.get model a)
          done)
        rom_regions;
      let expected = Bytes.unsafe_to_string expected in
      let restored = generations mem in
      let fresh p =
        if List.mem p moved then restored.(p) > newest
        else restored.(p) = held.(p)
      in
      dirty = Bytes.unsafe_to_string model
      && copied = List.length moved
      && Ssx.Memory.dump mem ~base:0 ~len:Ssx.Memory.size = expected
      && List.for_all fresh (List.init Ssx.Memory.page_count Fun.id)
      && synced = restored
      && Ssx.Memory.restore_pages mem ~image ~synced = 0
      && generations mem = restored
      && Ssx.Memory.dump mem ~base:0 ~len:Ssx.Memory.size = expected)

(* The word path against its definition.  Both engines share
   {!Ssx.Memory}, so the trap differentials cannot see a bug in it:
   here [write_word a v] on one memory and the two [write_byte]s it
   stands for on another must leave the same bytes, write count, ROM
   refusals and set of pages whose generation moved, and [read_word]
   must read the two bytes, around ragged ROM edges, page edges and
   the wrap. *)
let prop_word_is_two_bytes =
  QCheck.Test.make ~count:200 ~name:"word ops equal their two byte ops"
    (QCheck.make
       ~print:(fun (setup, ops) -> String.concat "\n" (List.map pp_op (setup @ ops)))
       gen_ops)
    (fun (setup, ops) ->
      let build () =
        let mem = Ssx.Memory.create () in
        List.iter (Ssx.Memory.protect mem) rom_regions;
        mem
      in
      let words = build () and bytes = build () in
      let moved before mem =
        let after = generations mem in
        List.filter (fun p -> after.(p) <> before.(p))
          (List.init Ssx.Memory.page_count Fun.id)
      in
      let reads_agree mem a =
        List.for_all
          (fun a ->
            Ssx.Memory.read_word mem a
            = Ssx.Memory.read_byte mem a
              lor (Ssx.Memory.read_byte mem (Ssx.Addr.mask (a + 1)) lsl 8))
          [ Ssx.Addr.mask (a - 1); a; Ssx.Addr.mask (a + 1) ]
      in
      let step op =
        match op with
        | Write_word (a, v) ->
          let words_before = generations words
          and bytes_before = generations bytes in
          Ssx.Memory.write_word words a v;
          Ssx.Memory.write_byte bytes a (v land 0xff);
          Ssx.Memory.write_byte bytes (Ssx.Addr.mask (a + 1)) (v lsr 8);
          moved words_before words = moved bytes_before bytes
          && Ssx.Memory.dump words ~base:(Ssx.Addr.mask (a - 2)) ~len:5
             = Ssx.Memory.dump bytes ~base:(Ssx.Addr.mask (a - 2)) ~len:5
          && reads_agree words a
        | Write_byte (a, _) | Force_write (a, _) | Blit (_, a, _) | Load (a, _) ->
          apply words op;
          apply bytes op;
          reads_agree words a
      in
      List.for_all step (setup @ ops)
      && Ssx.Memory.write_count words = Ssx.Memory.write_count bytes
      && Ssx.Memory.rom_refusal_count words = Ssx.Memory.rom_refusal_count bytes
      && Ssx.Memory.dump words ~base:0 ~len:Ssx.Memory.size
         = Ssx.Memory.dump bytes ~base:0 ~len:Ssx.Memory.size)

let suite =
  [ case "read and write bytes" test_read_write;
    case "words are little-endian" test_word_endianness;
    case "addresses wrap at 1 MiB" test_address_wrap;
    case "ROM write protection" test_rom_protection;
    case "force write" test_force_write;
    case "load and dump images" test_load_dump;
    case "load_image bypasses protection" test_load_into_rom;
    case "blit" test_blit;
    case "protected regions" test_regions;
    case "load_image moves each touched page once" test_load_image_pages ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_byte_roundtrip; prop_word_roundtrip; prop_page_restore;
        prop_word_is_two_bytes ]
