(* Tests for the vx ISA: encoding roundtrips, the assembler, and the
   textual parser. *)

let instr = Alcotest.testable Instr.pp Instr.equal

(* ------------------------------------------------------------------ *)
(* QCheck generators                                                    *)
(* ------------------------------------------------------------------ *)

let gen_reg = QCheck.Gen.int_range 0 (Instr.num_regs - 1)

let gen_operand =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> Instr.Reg r) gen_reg;
        map (fun i -> Instr.Imm i) (map Int64.of_int int);
      ])

let gen_binop =
  QCheck.Gen.oneofl
    [ Instr.Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sar ]

let gen_cond =
  QCheck.Gen.oneofl [ Instr.Eq; Ne; Lt; Le; Gt; Ge; Ult; Ule; Ugt; Uge ]

let gen_width = QCheck.Gen.oneofl [ Instr.W8; W16; W32; W64 ]

let gen_addr = QCheck.Gen.int_range 0 0xFFFFFF

let gen_disp = QCheck.Gen.int_range (-4096) 4096

let gen_port = QCheck.Gen.int_range 0 255

let gen_instr : Instr.t QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        return Instr.Hlt;
        return Instr.Nop;
        return Instr.Ret;
        map2 (fun r o -> Instr.Mov (r, o)) gen_reg gen_operand;
        map3 (fun op r o -> Instr.Bin (op, r, o)) gen_binop gen_reg gen_operand;
        map (fun r -> Instr.Neg r) gen_reg;
        map (fun r -> Instr.Not r) gen_reg;
        map2 (fun r o -> Instr.Cmp (r, o)) gen_reg gen_operand;
        map (fun a -> Instr.Jmp a) gen_addr;
        map2 (fun c a -> Instr.Jcc (c, a)) gen_cond gen_addr;
        map (fun a -> Instr.Call a) gen_addr;
        map (fun r -> Instr.Callr r) gen_reg;
        map (fun o -> Instr.Push o) gen_operand;
        map (fun r -> Instr.Pop r) gen_reg;
        (let* w = gen_width and* rd = gen_reg and* rb = gen_reg and* d = gen_disp in
         return (Instr.Load (w, rd, rb, d)));
        (let* w = gen_width and* rb = gen_reg and* d = gen_disp and* o = gen_operand in
         return (Instr.Store (w, rb, d, o)));
        map3 (fun rd rb d -> Instr.Lea (rd, rb, d)) gen_reg gen_reg gen_disp;
        map2 (fun p o -> Instr.Out (p, o)) gen_port gen_operand;
        map2 (fun r p -> Instr.In (r, p)) gen_reg gen_port;
        map (fun r -> Instr.Rdtsc r) gen_reg;
      ])

let arb_instr = QCheck.make ~print:Instr.to_string gen_instr

(* ------------------------------------------------------------------ *)
(* Encoding properties                                                  *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:2000 arb_instr (fun i ->
      let b = Encoding.encode_program [ i ] in
      match Encoding.decode_program b with [ j ] -> Instr.equal i j | _ -> false)

let prop_size_matches =
  QCheck.Test.make ~name:"encoded_size agrees with encoder" ~count:2000 arb_instr (fun i ->
      Bytes.length (Encoding.encode_program [ i ]) = Encoding.encoded_size i)

let prop_program_roundtrip =
  QCheck.Test.make ~name:"program roundtrip" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) gen_instr))
    (fun is ->
      let b = Encoding.encode_program is in
      List.length (Encoding.decode_program b) = List.length is
      && List.for_all2 Instr.equal is (Encoding.decode_program b))

let prop_cost_positive =
  QCheck.Test.make ~name:"every instruction has positive cost" ~count:500 arb_instr
    (fun i -> Instr.cost i > 0)

let test_decode_illegal_opcode () =
  let blob = Bytes.of_string "\xFF" in
  Alcotest.check_raises "illegal opcode"
    (Encoding.Decode_error { addr = 0; msg = "illegal opcode 0xff" })
    (fun () -> ignore (Encoding.decode_program blob))

let test_decode_bad_register () =
  (* MOV with register operand 0x20 (not a register, high bit clear) *)
  let blob = Bytes.of_string "\x02\x00\x20" in
  match Encoding.decode_program blob with
  | exception Encoding.Decode_error _ -> ()
  | _ -> Alcotest.fail "expected decode error"

(* ------------------------------------------------------------------ *)
(* Disassembler                                                         *)
(* ------------------------------------------------------------------ *)

(* One instance of every opcode in the table: every constructor, every
   binop, every condition, every width, and both operand shapes where an
   operand is accepted. *)
let full_opcode_table =
  let open Instr in
  [
    Hlt;
    Nop;
    Ret;
    Mov (1, Reg 2);
    Mov (3, Imm (-42L));
    Neg 4;
    Not 5;
    Cmp (6, Reg 7);
    Cmp (6, Imm 1234L);
    Jmp 0x8010;
    Call 0x8020;
    Callr 8;
    Push (Reg 9);
    Push (Imm 7L);
    Pop 10;
    Lea (11, 12, 256);
    Out (1, Reg 0);
    Out (2, Imm 99L);
    In (13, 3);
    Rdtsc 14;
  ]
  @ List.concat_map
      (fun op -> [ Bin (op, 1, Reg 2); Bin (op, 3, Imm 5L) ])
      [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sar ]
  @ List.map (fun c -> Jcc (c, 0x8030)) [ Eq; Ne; Lt; Le; Gt; Ge; Ult; Ule; Ugt; Uge ]
  @ List.concat_map
      (fun w -> [ Load (w, 1, 2, 8); Store (w, 3, -8, Reg 4); Store (w, 5, 16, Imm 255L) ])
      [ W8; W16; W32; W64 ]

(* Every opcode in the table survives encode -> linear-sweep disassemble:
   same instruction, contiguous addresses, sizes matching the encoder. *)
let test_disasm_full_table () =
  let blob = Encoding.encode_program full_opcode_table in
  let lines = Disasm.disassemble ~origin:0x8000 blob in
  Alcotest.(check int) "one line per instruction" (List.length full_opcode_table)
    (List.length lines);
  let addr = ref 0x8000 in
  List.iter2
    (fun i (l : Disasm.line) ->
      Alcotest.check (Alcotest.option instr) ("decodes " ^ Instr.to_string i) (Some i)
        l.Disasm.instr;
      Alcotest.(check int) "contiguous" !addr l.Disasm.addr;
      Alcotest.(check int) "size matches encoder" (Encoding.encoded_size i) l.Disasm.size;
      addr := !addr + l.Disasm.size)
    full_opcode_table lines;
  Alcotest.(check int) "sweep covers the blob" (0x8000 + Bytes.length blob) !addr

let prop_disasm_roundtrip =
  QCheck.Test.make ~name:"disassemble roundtrips random programs" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) gen_instr))
    (fun is ->
      let blob = Encoding.encode_program is in
      let lines = Disasm.disassemble ~origin:0x8000 blob in
      List.length lines = List.length is
      && List.for_all2
           (fun i (l : Disasm.line) ->
             match l.Disasm.instr with Some j -> Instr.equal i j | None -> false)
           is lines)

(* Truncating any multi-byte encoding by its final byte must not decode:
   decode_program raises, and the disassembler's linear sweep marks the
   opcode byte as data instead of inventing an instruction. *)
let test_truncated_instructions () =
  List.iter
    (fun i ->
      let full = Encoding.encode_program [ i ] in
      let n = Bytes.length full in
      if n > 1 then begin
        let cut = Bytes.sub full 0 (n - 1) in
        (match Encoding.decode_program cut with
        | exception Encoding.Decode_error _ -> ()
        | _ -> Alcotest.fail ("truncated " ^ Instr.to_string i ^ " decoded"));
        match Disasm.disassemble ~origin:0x8000 cut with
        | [] -> Alcotest.fail "no lines for truncated blob"
        | first :: _ ->
            Alcotest.check (Alcotest.option instr)
              ("truncated " ^ Instr.to_string i ^ " resyncs as data")
              None first.Disasm.instr
      end)
    full_opcode_table

let test_disasm_render () =
  let p = Asm.assemble_string "start:\n  mov r1, 10\n  call fn\n  hlt\nfn:\n  ret\n" in
  let text = Disasm.of_program p in
  List.iter
    (fun needle ->
      let nh = String.length text and nn = String.length needle in
      let rec contains i =
        i + nn <= nh && (String.sub text i nn = needle || contains (i + 1))
      in
      Alcotest.(check bool) ("render mentions " ^ needle) true (contains 0))
    [ "start:"; "fn:"; "mov r1, 10"; "; -> fn"; "008000" ]

(* ------------------------------------------------------------------ *)
(* Assembler                                                            *)
(* ------------------------------------------------------------------ *)

let test_assemble_label_resolution () =
  let p =
    Asm.assemble
      [
        Asm.Label "start";
        Asm.Insn (Asm.SJmp (Asm.Lbl "end"));
        Asm.Label "end";
        Asm.Insn Asm.SHlt;
      ]
  in
  Alcotest.(check int) "start at origin" 0x8000 (Asm.lookup p "start");
  (* SJmp encodes to 5 bytes *)
  Alcotest.(check int) "end after jmp" 0x8005 (Asm.lookup p "end");
  match Encoding.decode_program p.code with
  | [ Instr.Jmp a; Instr.Hlt ] -> Alcotest.(check int) "jump target" 0x8005 a
  | _ -> Alcotest.fail "unexpected decode"

let test_assemble_duplicate_label () =
  Alcotest.check_raises "duplicate" (Asm.Asm_error "duplicate label x") (fun () ->
      ignore (Asm.assemble [ Asm.Label "x"; Asm.Label "x" ]))

let test_assemble_undefined_label () =
  Alcotest.check_raises "undefined" (Asm.Asm_error "undefined label nowhere") (fun () ->
      ignore (Asm.assemble [ Asm.Insn (Asm.SJmp (Asm.Lbl "nowhere")) ]))

let test_assemble_data_directives () =
  let p =
    Asm.assemble ~origin:0
      [ Asm.Byte [ 1; 2; 3 ]; Asm.Quad [ 0x1122334455667788L ]; Asm.Zero 4; Asm.Str "hi" ]
  in
  Alcotest.(check int) "total size" (3 + 8 + 4 + 3) (Bytes.length p.code);
  Alcotest.(check char) "first byte" '\001' (Bytes.get p.code 0);
  Alcotest.(check char) "quad LSB" '\x88' (Bytes.get p.code 3);
  Alcotest.(check char) "string" 'h' (Bytes.get p.code 15);
  Alcotest.(check char) "NUL terminator" '\000' (Bytes.get p.code 17)

let test_assemble_label_as_immediate () =
  let p =
    Asm.assemble
      [ Asm.Insn (Asm.SMov (0, Asm.OLbl "data")); Asm.Insn Asm.SHlt; Asm.Label "data" ]
  in
  match Encoding.decode_program p.code with
  | [ Instr.Mov (0, Instr.Imm a); Instr.Hlt ] ->
      Alcotest.(check int) "address immediate" (Asm.lookup p "data") (Int64.to_int a)
  | _ -> Alcotest.fail "unexpected decode"

let test_assemble_entry () =
  let p =
    Asm.assemble ~entry:"main"
      [ Asm.Insn Asm.SNop; Asm.Label "main"; Asm.Insn Asm.SHlt ]
  in
  Alcotest.(check int) "entry" 0x8001 p.entry

(* ------------------------------------------------------------------ *)
(* Textual parser                                                       *)
(* ------------------------------------------------------------------ *)

let test_parse_basic_program () =
  let src = {|
; compute 2 + 3
start:
  mov r0, 2
  add r0, 3
  hlt
|} in
  let p = Asm.assemble_string src in
  match Encoding.decode_program p.code with
  | [ Instr.Mov (0, Instr.Imm 2L); Instr.Bin (Instr.Add, 0, Instr.Imm 3L); Instr.Hlt ] -> ()
  | is ->
      Alcotest.failf "unexpected program: %s"
        (String.concat "; " (List.map Instr.to_string is))

let test_parse_memory_operands () =
  let p = Asm.assemble_string "ld64 r1, [r2+8]\nst32 [r3-4], r1\nld8 r0, [r15]" in
  match Encoding.decode_program p.code with
  | [
   Instr.Load (Instr.W64, 1, 2, 8);
   Instr.Store (Instr.W32, 3, -4, Instr.Reg 1);
   Instr.Load (Instr.W8, 0, 15, 0);
  ] ->
      ()
  | is ->
      Alcotest.failf "unexpected program: %s"
        (String.concat "; " (List.map Instr.to_string is))

let test_parse_branches () =
  let src = {|
loop:
  sub r0, 1
  cmp r0, 0
  jgt loop
  hlt
|} in
  let p = Asm.assemble_string src in
  match Encoding.decode_program p.code with
  | [ Instr.Bin (Instr.Sub, 0, _); Instr.Cmp (0, _); Instr.Jcc (Instr.Gt, tgt); Instr.Hlt ]
    ->
      Alcotest.(check int) "loop target" 0x8000 tgt
  | _ -> Alcotest.fail "unexpected decode"

let test_parse_io_and_misc () =
  let p = Asm.assemble_string "out 1, r0\nin r2, 3\nrdtsc r4\npush 99\npop r5" in
  match Encoding.decode_program p.code with
  | [
   Instr.Out (1, Instr.Reg 0);
   Instr.In (2, 3);
   Instr.Rdtsc 4;
   Instr.Push (Instr.Imm 99L);
   Instr.Pop 5;
  ] ->
      ()
  | _ -> Alcotest.fail "unexpected decode"

let test_parse_string_escapes () =
  let p = Asm.assemble_string ~origin:0 {|.string "a\nb\0c"|} in
  Alcotest.(check string) "escapes" "a\nb\000c\000" (Bytes.to_string p.code)

let test_parse_comments_and_blank_lines () =
  let p = Asm.assemble_string "\n; only a comment\n   \nhlt ; trailing\n" in
  Alcotest.(check int) "one instruction" 1 (Bytes.length p.code)

let test_parse_error_reports_line () =
  match Asm.parse "nop\nbogus r0\n" with
  | exception Asm.Asm_error msg ->
      Alcotest.(check bool) "mentions line 2" true
        (String.length msg >= 6 && String.sub msg 0 6 = "line 2")
  | _ -> Alcotest.fail "expected parse error"

let test_parse_hex_immediates () =
  let p = Asm.assemble_string "mov r0, 0xff" in
  match Encoding.decode_program p.code with
  | [ Instr.Mov (0, Instr.Imm 255L) ] -> ()
  | _ -> Alcotest.fail "hex immediate"

let qsuite name tests = (name, List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) tests)

let () =
  Alcotest.run "isa"
    [
      qsuite "encoding-properties"
        [ prop_roundtrip; prop_size_matches; prop_program_roundtrip; prop_cost_positive ];
      ( "decoding",
        [
          Alcotest.test_case "illegal opcode" `Quick test_decode_illegal_opcode;
          Alcotest.test_case "bad register" `Quick test_decode_bad_register;
        ] );
      qsuite "disasm-properties" [ prop_disasm_roundtrip ];
      ( "disasm",
        [
          Alcotest.test_case "full opcode table roundtrip" `Quick test_disasm_full_table;
          Alcotest.test_case "truncated instructions" `Quick test_truncated_instructions;
          Alcotest.test_case "render" `Quick test_disasm_render;
        ] );
      ( "assembler",
        [
          Alcotest.test_case "label resolution" `Quick test_assemble_label_resolution;
          Alcotest.test_case "duplicate label" `Quick test_assemble_duplicate_label;
          Alcotest.test_case "undefined label" `Quick test_assemble_undefined_label;
          Alcotest.test_case "data directives" `Quick test_assemble_data_directives;
          Alcotest.test_case "label as immediate" `Quick test_assemble_label_as_immediate;
          Alcotest.test_case "entry symbol" `Quick test_assemble_entry;
        ] );
      ( "parser",
        [
          Alcotest.test_case "basic program" `Quick test_parse_basic_program;
          Alcotest.test_case "memory operands" `Quick test_parse_memory_operands;
          Alcotest.test_case "branches" `Quick test_parse_branches;
          Alcotest.test_case "io and misc" `Quick test_parse_io_and_misc;
          Alcotest.test_case "string escapes" `Quick test_parse_string_escapes;
          Alcotest.test_case "comments" `Quick test_parse_comments_and_blank_lines;
          Alcotest.test_case "error line numbers" `Quick test_parse_error_reports_line;
          Alcotest.test_case "hex immediates" `Quick test_parse_hex_immediates;
        ] );
    ]
