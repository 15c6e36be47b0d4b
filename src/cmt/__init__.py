"""Encrypted multi-tenant record store over a from-scratch AES-128.

Every tenant's field values are encrypted (CBC + encrypt-then-MAC) under
keys derived from one master key before they are written to a shared,
append-only, row-per-tenant store file.

The package binds no names of its own: each public name is imported from
the module that defines it (`cmt.tenant_store`, `cmt.key_service`,
`cmt.crypto_codec`, `cmt.aes_core`, `cmt.errors`, `cmt.cli`), so importing
one module loads only what that module needs.
"""
